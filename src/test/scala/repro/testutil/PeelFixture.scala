package repro.testutil

import repro.core.{ArbNucleusDecomp, CliqueTable}
import repro.graph.{CSRGraph, Orientation, PeelableGraph}

/** A [[PeelableGraph]] over `g` wired as `decompose` wires it at r = 2: a
  * clique table of g's edges (built from the sorted edge list, reporting
  * each edge's slot) and the `peeledRound` marks it reads liveness from.
  */
final class PeelFixture(val g: CSRGraph) {
  val (edges, numEdges) = ArbNucleusDecomp.listSortedCliques(Orientation.orient(g), 2, sortNeeded = true, g.n)
  val edgeSlots = new Array[Int](numEdges)
  val table: CliqueTable = CliqueTable.build(edges, numEdges, 2, g.n, slots = edgeSlots)
  val peeledRound: Array[Int] = Array.fill(math.max(1, table.capacity))(Int.MaxValue)
  val pg = new PeelableGraph(g, edges, edgeSlots, peeledRound)
  private var round = 0

  /** The table slot of edge (u, v), either order. */
  def slotOf(u: Int, v: Int): Int = table.slotOf(Array(math.min(u, v), math.max(u, v)))

  /** Marks `pairs` peeled in a new round, as `decompose` does before it
    * notes them, and notes them; returns whether a contraction ran.
    */
  def peel(pairs: Seq[(Int, Int)]): Boolean = {
    round += 1
    for ((u, v) <- pairs) peeledRound(slotOf(u, v)) = round
    note(pairs)
  }

  /** Notes `pairs` as peeled without marking them. */
  def note(pairs: Seq[(Int, Int)]): Boolean = {
    for ((u, v) <- pairs) pg.lose(u, v)
    pg.notePeeled(pairs.length)
  }

  /** True iff every live entry of the graph carries its edge's slot. */
  def slotsMatch(): Boolean =
    (0 until g.n).forall { v =>
      (pg.offsets(v) until pg.offsets(v) + pg.degree(v)).forall(j => pg.slots(j) == slotOf(v, pg.adj(j)))
    }
}
