package repro.graph

import repro.cliques.Intersect
import repro.par.Par

/** Read-only view of an undirected adjacency structure, as UPDATE's
  * intersection kernel ([[repro.cliques.Intersect.commonNeighbors]]) reads
  * it — implemented by the immutable [[CSRGraph]] and by the contractible
  * [[PeelableGraph]] used for the (2,3) graph-contraction optimization
  * (paper §5.6). The neighbors of `v` are
  * `adjArray(v)(adjFrom(v) until adjFrom(v) + degree(v))`, sorted ascending.
  */
trait Adjacency extends Serializable {
  def n: Int
  def degree(v: Int): Int
  /** The array holding `v`'s neighbors (shared, never copied). */
  def adjArray(v: Int): Array[Int]
  /** Index in [[adjArray]]`(v)` of `v`'s first neighbor. */
  def adjFrom(v: Int): Int
}

/** Immutable simple undirected graph in compressed sparse row form.
  *
  * `offsets` has length `n + 1`; the neighbors of vertex `v` are
  * `adj(offsets(v)) until adj(offsets(v+1))`, sorted ascending with no
  * duplicates and no self loops. `m` counts undirected edges, so
  * `adj.length == 2 * m`.
  */
final class CSRGraph(val offsets: Array[Int], val adj: Array[Int]) extends Adjacency {
  val n: Int = offsets.length - 1
  val m: Long = adj.length / 2L

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  def adjArray(v: Int): Array[Int] = adj
  def adjFrom(v: Int): Int = offsets(v)

  /** Iterates neighbors of `v` without allocation. */
  def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val hi = offsets(v + 1)
    while (i < hi) { f(adj(i)); i += 1 }
  }

  def neighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  /** Binary search in `v`'s sorted adjacency list. */
  def hasEdge(v: Int, u: Int): Boolean = {
    var lo = offsets(v)
    var hi = offsets(v + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val x = adj(mid)
      if (x == u) return true
      else if (x < u) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  def maxDegree: Int = {
    var mx = 0
    var v = 0
    while (v < n) { val d = degree(v); if (d > mx) mx = d; v += 1 }
    mx
  }

  /** Returns an isomorphic graph with vertex `v` renamed to `newId(v)`. */
  def relabel(newId: Array[Int]): CSRGraph = {
    require(newId.length == n, "relabel permutation must cover all vertices")
    val newDeg = new Array[Int](n)
    Par.forRange(0, n)(v => newDeg(newId(v)) = degree(v))
    val newOff = new Array[Int](n + 1)
    var acc = 0
    var v = 0
    while (v < n) { newOff(v) = acc; acc += newDeg(v); v += 1 }
    newOff(n) = acc
    val newAdj = new Array[Int](adj.length)
    Par.forRange(0, n) { v =>
      val tgt = newId(v)
      var w = newOff(tgt)
      foreachNeighbor(v) { u => newAdj(w) = newId(u); w += 1 }
      java.util.Arrays.sort(newAdj, newOff(tgt), newOff(tgt + 1))
    }
    new CSRGraph(newOff, newAdj)
  }
}

object CSRGraph {

  /** Builds a CSR graph from an arbitrary edge list. Self loops are dropped,
    * parallel/duplicate and reversed duplicates are collapsed; `n` is
    * inferred as 1 + max vertex id unless given.
    */
  def fromEdges(edges: Iterable[(Int, Int)], numVertices: Int = -1): CSRGraph = {
    val canon = edges.iterator
      .filter { case (u, v) => u != v }
      .map { case (u, v) => if (u < v) (u, v) else (v, u) }
      .toArray
      .distinct
    val n =
      if (numVertices >= 0) numVertices
      else if (canon.isEmpty) 0
      else canon.iterator.map(e => math.max(e._1, e._2)).max + 1
    require(canon.forall(e => e._1 >= 0 && e._2 < n), "vertex id out of range")
    val deg = new Array[Int](n)
    canon.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    val offsets = new Array[Int](n + 1)
    var acc = 0
    var v = 0
    while (v < n) { offsets(v) = acc; acc += deg(v); v += 1 }
    offsets(n) = acc
    val cursor = java.util.Arrays.copyOf(offsets, n)
    val adj = new Array[Int](acc)
    canon.foreach { case (u, w) =>
      adj(cursor(u)) = w; cursor(u) += 1
      adj(cursor(w)) = u; cursor(w) += 1
    }
    var x = 0
    while (x < n) { java.util.Arrays.sort(adj, offsets(x), offsets(x + 1)); x += 1 }
    new CSRGraph(offsets, adj)
  }

  /** Complete graph on `n` vertices — handy in tests. */
  def complete(n: Int): CSRGraph =
    fromEdges(for (u <- 0 until n; v <- u + 1 until n) yield (u, v), n)
}

/** A DAG produced by orienting an undirected graph along a total vertex
  * order: edges point from lower rank to higher rank. `rank` maps vertex →
  * position in the order. Out-adjacency lists are sorted by vertex id (so
  * sorted-array intersection works directly).
  */
final class DirectedGraph(
    val offsets: Array[Int],
    val adj: Array[Int],
    val rank: Array[Int]
) extends Serializable {
  val n: Int = offsets.length - 1

  def outDegree(v: Int): Int = offsets(v + 1) - offsets(v)

  def maxOutDegree: Int = {
    var mx = 0
    var v = 0
    while (v < n) { val d = outDegree(v); if (d > mx) mx = d; v += 1 }
    mx
  }

  /** Writes the intersection of sorted `cand(0 until candLen)` with the
    * out-neighbors of `v` into `out`, returning the intersection size.
    */
  def intersectOut(cand: Array[Int], candLen: Int, v: Int, out: Array[Int]): Int =
    Intersect.intersect(cand, 0, candLen, adj, offsets(v), outDegree(v), out)
}
