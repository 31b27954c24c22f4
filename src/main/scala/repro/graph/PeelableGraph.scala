package repro.graph

import repro.par.Par

/** Mutable adjacency view supporting the (2,3) graph-contraction
  * optimization (paper §5.6): when enough edges have been peeled, the
  * adjacency lists of vertices that lost at least a quarter of their
  * neighbors since the last contraction are filtered (parallel per vertex),
  * so later rounds stop iterating over peeled edges.
  *
  * Filtering is purely a work-saving measure: a peeled edge left in a list
  * is caught by the algorithm's previously-peeled check, so lists may be
  * trimmed asymmetrically without affecting correctness.
  */
final class PeelableGraph(g: CSRGraph) extends Adjacency {
  val n: Int = g.n
  private val adjArr: Array[Array[Int]] = Array.tabulate(n)(g.neighbors)
  private val len: Array[Int] = Array.tabulate(n)(g.degree)
  /** Neighbors lost (peeled) since the last contraction, per vertex. */
  private val lost: Array[Int] = new Array[Int](n)
  /** Degree at the time of the last contraction, per vertex. */
  private val baseDeg: Array[Int] = Array.tabulate(n)(g.degree)
  private var peeledSinceContraction = 0L
  private var contractionCount = 0

  def degree(v: Int): Int = len(v)

  def adjArray(v: Int): Array[Int] = adjArr(v)
  def adjFrom(v: Int): Int = 0

  /** Records that the edges in `peeledPairs` (flattened u,v pairs) were
    * peeled this round, and contracts if the §5.6 heuristics fire: peeled
    * edges since the last contraction ≥ 2n, and only vertices that lost
    * ≥ 1/4 of their neighbors are filtered. `isPeeled(u, v)` decides edge
    * liveness during filtering. Returns true if a contraction ran.
    */
  def notePeeled(peeledPairs: Array[Int], numEdges: Int)(isPeeled: (Int, Int) => Boolean): Boolean = {
    var i = 0
    while (i < numEdges) {
      val u = peeledPairs(2 * i)
      val v = peeledPairs(2 * i + 1)
      lost(u) += 1
      lost(v) += 1
      i += 1
    }
    peeledSinceContraction += numEdges
    if (peeledSinceContraction < 2L * n) return false
    Par.forRange(0, n) { v =>
      if (lost(v) * 4 >= math.max(1, baseDeg(v))) {
        val a = adjArr(v)
        val l = len(v)
        var w = 0
        var j = 0
        while (j < l) {
          val u = a(j)
          if (!isPeeled(v, u)) { a(w) = u; w += 1 }
          j += 1
        }
        len(v) = w
        baseDeg(v) = w
        lost(v) = 0
      }
    }
    peeledSinceContraction = 0
    contractionCount += 1
    true
  }

  /** Number of contractions performed so far (for stats/tests). */
  def contractions: Int = contractionCount
}
