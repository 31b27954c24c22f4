package repro.graph

/** The s-clique rows at (4,5): one row per 4-clique, one entry per 5-clique
  * through it.
  */
class FourCliqueRowsSpec extends ScliqueRowsSpec(4) {
  testRows("each 4-clique's row holds, per common neighbour x of its four vertices, the slots of the four 4-cliques that swap one vertex for x")
  testRowLengths("(4,5) row lengths equal the per-subset count phase, slot for slot")
  testLimit("(4,5) rows of more than 107,374,181 5-cliques are rejected before anything is allocated")
}
