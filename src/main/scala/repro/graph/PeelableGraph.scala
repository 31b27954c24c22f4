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
  * range, `adj(offsets(v) until offsets(v) + degree(v))`, still sorted.
  * Beside each entry, [[slots]] holds the edge's slot in the clique table,
  * and an entry is live while `peeledRound` holds `Int.MaxValue` at that
  * slot, so filtering reads liveness by position, with no search.
  *
  * The slot map is built without probing the table: `edges` is the sorted
  * edge list the table was built from, with `edgeSlots(c)` the slot of edge
  * `c`. Its edges (u, v), u < v, are the upper halves of the CSR lists in
  * order, and one stable [[Par.scatter]] by v places the lower halves, each
  * ascending in u.
  *
  * Filtering is purely a work-saving measure: a peeled edge left in a list
  * is caught by the algorithm's previously-peeled check, so lists may be
  * trimmed asymmetrically without affecting correctness.
  */
final class PeelableGraph(g: CSRGraph, edges: Array[Int], edgeSlots: Array[Int], peeledRound: Array[Int])
    extends Adjacency {
  require(
    edges.length == g.adj.length,
    s"the edge list holds ${edges.length / 2} edges, the graph ${g.m}"
  )
  val n: Int = g.n
  val offsets: Array[Int] = g.offsets
  val adj: Array[Int] = g.adj.clone()
  /** The clique-table slot of the edge at each position of `adj`. */
  val slots: Array[Int] = new Array[Int](adj.length)
  /** Live length of each vertex's range; also its degree at the last contraction. */
  private val len: Array[Int] = Array.tabulate(n)(g.degree)
  /** Neighbors lost (peeled) since the last contraction, per vertex. */
  private val lost = new AtomicIntegerArray(n)
  private var peeledSinceContraction = 0L
  private var contractionCount = 0

  locally {
    // edge c = (u, v) sits at position upperShift(u) + c of u's list and at
    // the next lower position of v's list
    val upperShift = new Array[Int](n)
    var before = 0 // edges whose first vertex precedes the current bucket
    Par.scatter(edges.length / 2, n) { (lo, hi, hist) =>
      var c = lo
      while (c < hi) { hist(edges(2 * c + 1)) += 1; c += 1 }
    } { (v, lower) =>
      upperShift(v) = offsets(v) + lower - before
      before += g.degree(v) - lower
      offsets(v)
    } { (lo, hi, pos) =>
      var c = lo
      while (c < hi) {
        val v = edges(2 * c + 1)
        val sl = edgeSlots(c)
        slots(upperShift(edges(2 * c)) + c) = sl
        slots(pos(v)) = sl
        pos(v) += 1
        c += 1
      }
    }
  }

  def degree(v: Int): Int = len(v)

  /** Notes that edge (u, v), its slot already marked in `peeledRound`, was
    * peeled this round; each edge once over all calls. Safe to call from
    * concurrent workers.
    */
  def lose(u: Int, v: Int): Unit = {
    lost.incrementAndGet(u)
    lost.incrementAndGet(v)
  }

  /** Closes a round that peeled `numEdges` edges, each noted with [[lose]],
    * and contracts if the §5.6 heuristics fire: peeled edges since the last
    * contraction ≥ 2n, and only vertices that lost ≥ 1/4 of their neighbors
    * are filtered. A filtered vertex must drop exactly the entries noted
    * lost at it, or this throws an IllegalStateException naming the vertex.
    * Returns true if a contraction ran.
    */
  def notePeeled(numEdges: Int): Boolean = {
    peeledSinceContraction += numEdges
    if (peeledSinceContraction < 2L * n) return false
    Par.forRange(0, n) { v =>
      val l = len(v)
      val lv = lost.get(v)
      if (lv * 4 >= math.max(1, l)) {
        val lo = offsets(v)
        var w = lo
        var j = lo
        while (j < lo + l) {
          if (peeledRound(slots(j)) == Int.MaxValue) { adj(w) = adj(j); slots(w) = slots(j); w += 1 }
          j += 1
        }
        if (lo + l - w != lv)
          throw new IllegalStateException(s"vertex $v dropped ${lo + l - w} peeled entries, but $lv of its edges were noted peeled")
        len(v) = w - lo
        lost.set(v, 0)
      }
    }
    peeledSinceContraction = 0
    contractionCount += 1
    true
  }

  /** Number of contractions performed so far (for stats/tests). */
  def contractions: Int = contractionCount
}
