package repro.graph

/** The s-clique rows at (5,6): one row per 5-clique, one entry per 6-clique
  * through it.
  */
class FiveCliqueRowsSpec extends ScliqueRowsSpec(5) {
  testRows("each 5-clique's row holds, per common neighbour x of its five vertices, the slots of the five 5-cliques that swap one vertex for x")
  testRowLengths("(5,6) row lengths equal the per-subset count phase, slot for slot")
  testLimit("(5,6) rows of more than 71,582,787 6-cliques are rejected before anything is allocated")
}
