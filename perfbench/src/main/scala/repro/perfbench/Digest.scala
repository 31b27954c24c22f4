package repro.perfbench

import repro.baselines.{And, BaselineResult, PktTruss}
import repro.core.NucleusResult
import repro.graph.CSRGraph

/** Order-independent digest of a decomposition's output: the sum of a 64-bit
  * hash of every (sorted clique in input vertex ids, core number) pair, plus
  * the pair count. Two outputs agree iff they assign the same core number to
  * the same cliques (up to hash collisions).
  */
final case class Digest(pairs: Long, sum: Long) {
  override def toString: String = f"$pairs%d:$sum%016x"
}

object Digest {

  /** splitmix64 finalizer. */
  @inline private def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  private def pairHash(vs: Array[Int], r: Int, core: Long): Long = {
    var h = mix(r.toLong)
    var i = 0
    while (i < r) { h = mix(h ^ vs(i).toLong); i += 1 }
    mix(h ^ core)
  }

  def of(res: NucleusResult): Digest = {
    val r = res.r
    val buf = new Array[Int](r)
    var pairs = 0L
    var sum = 0L
    res.table.foreachOccupied { slot =>
      res.table.cliqueOf(slot, buf)
      if (res.oldOf != null) {
        var i = 0
        while (i < r) { buf(i) = res.oldOf(buf(i)); i += 1 }
        java.util.Arrays.sort(buf)
      }
      sum += pairHash(buf, r, res.core(slot))
      pairs += 1
    }
    Digest(pairs, sum)
  }

  def of(t: PktTruss.TrussResult): Digest = {
    val buf = new Array[Int](2)
    var sum = 0L
    var i = 0
    while (i < t.edges.length) {
      buf(0) = (t.edges(i) >>> 32).toInt
      buf(1) = (t.edges(i) & 0xFFFFFFFFL).toInt
      sum += pairHash(buf, 2, t.core(i).toLong)
      i += 1
    }
    Digest(t.edges.length.toLong, sum)
  }

  def of(b: BaselineResult): Digest = {
    val r = b.index.r
    val buf = new Array[Int](r)
    var sum = 0L
    var id = 0
    while (id < b.index.num) {
      b.index.vertsOf(id, buf)
      sum += pairHash(buf, r, b.core(id))
      id += 1
    }
    Digest(b.index.num.toLong, sum)
  }

  /** Digest of an implementation independent of ARB-NUCLEUS-DECOMP: the
    * specialized k-truss peel for (2,3), otherwise the AND local h-index
    * fixpoint with notifications (AND-NN), which reaches the same fixpoint
    * as plain AND in a quarter of the time on these graphs.
    */
  def reference(g: CSRGraph, r: Int, s: Int): Digest =
    if (r == 2 && s == 3) of(PktTruss.run(g)) else of(And.run(g, r, s, notification = true))

  /** Hash of the CSR arrays: equal iff the two graphs are identical. */
  def ofGraph(g: CSRGraph): Long = {
    var h = mix(g.n.toLong)
    var i = 0
    while (i < g.offsets.length) { h = mix(h ^ g.offsets(i).toLong); i += 1 }
    i = 0
    while (i < g.adj.length) { h = mix(h ^ g.adj(i).toLong); i += 1 }
    h
  }
}
