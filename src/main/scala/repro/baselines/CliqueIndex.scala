package repro.baselines

import repro.cliques.CliqueEncoding
import repro.core.{ArbNucleusDecomp, Util}
import repro.core.ArbNucleusDecomp.UpdateScratch
import repro.graph.{CSRGraph, DirectedGraph, Orientation}

/** Dense r-clique index shared by the reimplemented comparators (ND, PND,
  * AND, AND-NN). Assigns each r-clique an id 0..num−1 via a sorted array of
  * packed keys (binary search lookup). It is a dense-id view over
  * ARB-NUCLEUS-DECOMP's own listing, count and UPDATE enumeration, so
  * measured differences isolate the peeling strategies themselves — the
  * quantities the paper compares (rounds, s-clique discoveries) rather than
  * unrelated implementation details.
  */
final class CliqueIndex(val g: CSRGraph, val r: Int) {
  val dg: DirectedGraph = Orientation.orient(g, Orientation.Degeneracy)
  private val enc = new CliqueEncoding(g.n)
  require(enc.fits(r), s"CliqueIndex needs packed keys: r=$r over n=${g.n} does not fit 62 bits")

  /** Sorted packed keys; position == clique id. */
  val keys: Array[Long] = {
    val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, r, sortNeeded = true, g.n)
    Array.tabulate(num)(i => enc.pack(flat, i * r, r))
  }

  def num: Int = keys.length

  def idOf(vsSorted: Array[Int]): Int = {
    val key = enc.pack(vsSorted, 0, r)
    val i = java.util.Arrays.binarySearch(keys, key)
    if (i >= 0) i else -1
  }

  def vertsOf(id: Int, out: Array[Int]): Unit = enc.unpack(keys(id), r, out, 0)

  /** Initial s-clique counts per r-clique id; also returns the total number
    * of s-cliques.
    */
  def countScliques(s: Int): (Array[Int], Long) = {
    val counts = new java.util.concurrent.atomic.AtomicIntegerArray(num)
    ArbNucleusDecomp.foreachRSubsetOfScliques(dg, r, s, sortNeeded = true) { sub =>
      counts.incrementAndGet(idOf(sub))
    }
    val arr = new Array[Int](num)
    var sum = 0L
    var i = 0
    while (i < num) { arr(i) = counts.get(i); sum += arr(i); i += 1 }
    // each s-clique contributes exactly C(s,r) increments
    (arr, sum / math.max(1, Util.choose(s, r)))
  }

  /** Enumerates the s-cliques containing r-clique `id`: for each, `f`
    * receives the ids of all C(s,r) r-subsets (including `id` itself) in a
    * reused buffer. Returns the number of s-cliques enumerated (the
    * "s-clique discoveries" work metric).
    */
  def foreachIncidentSclique(id: Int, sc: UpdateScratch)(f: Array[Int] => Unit): Long = {
    vertsOf(id, sc.vsR)
    ArbNucleusDecomp.foreachIncidentSclique(g, dg, sc) { sClique =>
      var j = 0
      while (j < sc.subsets.size) { sc.subsetIds(j) = idOf(sc.subsets(sClique, j)); j += 1 }
      f(sc.subsetIds)
    }
  }

  def newScratch(s: Int): UpdateScratch = new UpdateScratch(r, s, math.max(1, g.maxDegree))
}
