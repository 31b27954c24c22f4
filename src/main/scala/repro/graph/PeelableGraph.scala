package repro.graph

import java.util.concurrent.atomic.AtomicIntegerArray
import repro.par.Par

/** Mutable adjacency view supporting the graph-contraction optimization
  * (paper §5.6) for r = 2, where the r-cliques peeled are edges: when
  * enough edges have been peeled, the adjacency lists of vertices that lost
  * at least a quarter of their neighbors since the last contraction are
  * filtered (parallel per vertex), so later rounds stop iterating over
  * peeled edges.
  *
  * The layout is the base graph's CSR: it shares `offsets` and holds one
  * clone of `adj`, with each vertex's live neighbors at the front of its
  * range, `adj(offsets(v) until offsets(v) + degree(v))`, still sorted. A
  * flag array aligned with `adj` marks the peeled entries not yet filtered
  * out, so edge liveness is decided here, without the clique table.
  *
  * Filtering is purely a work-saving measure: a peeled edge left in a list
  * is caught by the algorithm's previously-peeled check, so lists may be
  * trimmed asymmetrically without affecting correctness.
  */
final class PeelableGraph(g: CSRGraph) extends Adjacency {
  val n: Int = g.n
  val offsets: Array[Int] = g.offsets
  val adj: Array[Int] = g.adj.clone()
  /** Live length of each vertex's range; also its degree at the last contraction. */
  private val len: Array[Int] = Array.tabulate(n)(g.degree)
  /** True at each position of `adj` holding a peeled edge not yet filtered out. */
  private val dead: Array[Boolean] = new Array[Boolean](adj.length)
  /** Neighbors lost (peeled) since the last contraction, per vertex. */
  private val lost = new AtomicIntegerArray(n)
  private var peeledSinceContraction = 0L
  private var contractionCount = 0

  def degree(v: Int): Int = len(v)

  /** Records that the edges in `peeledPairs(0 until 2 * numEdges)`
    * (flattened u,v pairs, each edge at most once over all calls) were
    * peeled this round, and contracts if the §5.6 heuristics fire: peeled
    * edges since the last contraction ≥ 2n, and only vertices that lost
    * ≥ 1/4 of their neighbors are filtered. Throws an
    * IllegalStateException if a pair is not a live edge at both ends.
    * Returns true if a contraction ran.
    */
  def notePeeled(peeledPairs: Array[Int], numEdges: Int): Boolean = {
    Par.forBlocked(0, numEdges) { (lo, hi) =>
      var i = lo
      while (i < hi) {
        val u = peeledPairs(2 * i)
        val v = peeledPairs(2 * i + 1)
        markDead(u, v)
        markDead(v, u)
        i += 1
      }
    }
    peeledSinceContraction += numEdges
    if (peeledSinceContraction < 2L * n) return false
    Par.forRange(0, n) { v =>
      val l = len(v)
      if (lost.get(v) * 4 >= math.max(1, l)) {
        val lo = offsets(v)
        var w = lo
        var j = lo
        while (j < lo + l) {
          if (!dead(j)) { adj(w) = adj(j); dead(w) = false; w += 1 }
          j += 1
        }
        len(v) = w - lo
        lost.set(v, 0)
      }
    }
    peeledSinceContraction = 0
    contractionCount += 1
    true
  }

  /** Flags `u` dead in `v`'s live range and counts the loss at `v`. */
  private def markDead(v: Int, u: Int): Unit = {
    val at = java.util.Arrays.binarySearch(adj, offsets(v), offsets(v) + len(v), u)
    if (at < 0 || dead(at))
      throw new IllegalStateException(s"peeled edge ($v, $u) is not live at vertex $v")
    dead(at) = true
    lost.incrementAndGet(v)
  }

  /** Number of contractions performed so far (for stats/tests). */
  def contractions: Int = contractionCount
}
