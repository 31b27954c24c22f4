package repro.graph

/** The s-clique rows at (1,2): one row per vertex, one entry per edge
  * through it, the slot of the other end; the adjacency lists over the
  * vertex slots of T.
  */
class VertexRowsSpec extends ScliqueRowsSpec(1) {
  testRows("each vertex's row holds, per neighbour x, the slot of x")
  testRowLengths("(1,2) row lengths equal the vertex degrees of the per-subset count phase, slot for slot")
  testLimit("(1,2) rows of more than 1,073,741,819 edges are rejected before anything is allocated")
}
