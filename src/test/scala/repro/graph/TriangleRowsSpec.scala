package repro.graph

/** The s-clique rows at (3,4): one row per triangle, one entry per 4-clique
  * through it.
  */
class TriangleRowsSpec extends ScliqueRowsSpec(3) {
  testRows("each triangle's row holds, per common neighbour x of its vertices a, b and c, the slots of abx, acx and bcx")
  testRowLengths("(3,4) count phase on the rows equals the per-subset count phase, slot for slot")
  testLimit("rows that would not fit an Int-indexed array are rejected before allocating, naming the count and the limit")
}
