package repro.graph

/** The s-clique rows at (2,3): one row per edge, one entry per triangle
  * through it.
  */
class TrussRowsSpec extends ScliqueRowsSpec(2) {
  testRows("each edge's row holds, per common neighbour x of its ends u and w, the slots of ux and wx")
  testRowLengths("(2,3) row lengths equal the per-subset count phase, slot for slot")
  testLimit("rows that would not fit an Int-indexed array are rejected before anything is allocated")
}
