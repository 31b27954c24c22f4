package repro.graph

import repro.par.Par

/** Read-only view of an undirected adjacency structure in CSR layout, as
  * UPDATE's intersection kernel ([[repro.cliques.Intersect.commonNeighbors]])
  * reads it — implemented by the immutable [[CSRGraph]] and by the
  * contractible [[PeelableGraph]] used for the r = 2 graph-contraction
  * optimization (paper §5.6). The neighbors of `v` are
  * `adj(offsets(v) until offsets(v) + degree(v))`, sorted ascending.
  */
trait Adjacency extends Serializable {
  def n: Int
  def offsets: Array[Int]
  def adj: Array[Int]
  def degree(v: Int): Int
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
    * inferred as 1 + max vertex id unless given. Packs each edge as a
    * [[fromPackedEdges]] key, which does the rest.
    */
  def fromEdges(edges: Iterable[(Int, Int)], numVertices: Int = -1): CSRGraph = {
    val keys = new scala.collection.mutable.ArrayBuilder.ofLong
    if (edges.knownSize > 0) keys.sizeHint(edges.knownSize)
    var maxId = -1
    val it = edges.iterator
    while (it.hasNext) {
      val e = it.next()
      if (e._1 != e._2) {
        val u = math.min(e._1, e._2)
        val v = math.max(e._1, e._2)
        require(u >= 0, s"vertex id $u is negative")
        keys += packEdge(u, v)
        if (v > maxId) maxId = v
      }
    }
    val packed = keys.result()
    fromPackedEdges(packed, packed.length, if (numVertices >= 0) numVertices else maxId + 1)
  }

  /** The key of undirected edge {u, v} with `0 <= u < v`: `u` in the high
    * word, `v` in the low word, so keys sort by (u, v).
    */
  @inline def packEdge(u: Int, v: Int): Long = (u.toLong << 32) | v

  /** Builds a CSR graph on `n` vertices from packed edge keys
    * ([[packEdge]], `0 <= u < v < n`) in `keys(0 until len)`, which may hold
    * duplicates in any order. Sorts that range in place with one primitive
    * sort, drops adjacent duplicates, counts degrees, then fills `adj` in one
    * pass.
    */
  def fromPackedEdges(keys: Array[Long], len: Int, n: Int): CSRGraph = {
    require(n >= 0, s"vertex count $n is negative")
    require(len >= 0 && len <= keys.length, s"key count $len outside [0, ${keys.length}]")
    Par.sortLongs(keys, 0, len)
    val deg = new Array[Int](n)
    var m = 0
    var i = 0
    while (i < len) {
      val key = keys(i)
      if (m == 0 || key != keys(m - 1)) {
        val u = key >>> 32
        val v = key & 0xFFFFFFFFL
        require(u < v, f"edge key $key%016x is not (u << 32) | v with u < v")
        require(v < n, s"vertex id $v out of range for n = $n")
        deg(u.toInt) += 1
        deg(v.toInt) += 1
        keys(m) = key
        m += 1
      }
      i += 1
    }
    require(2L * m <= Int.MaxValue, s"m = $m edges: 2·m exceeds Int.MaxValue, the limit of Int CSR offsets")
    val offsets = new Array[Int](n + 1)
    var v = 0
    while (v < n) { offsets(v + 1) = offsets(v) + deg(v); v += 1 }
    // Keys are sorted by (u, v), so each vertex first receives its smaller
    // neighbours in ascending order (as the v of their keys), then its larger
    // ones in ascending order (as their u): every list comes out sorted, with
    // no per-vertex sort.
    val cursor = java.util.Arrays.copyOf(offsets, n)
    val adj = new Array[Int](2 * m)
    i = 0
    while (i < m) {
      val u = (keys(i) >>> 32).toInt
      val w = keys(i).toInt
      adj(cursor(u)) = w; cursor(u) += 1
      adj(cursor(w)) = u; cursor(w) += 1
      i += 1
    }
    new CSRGraph(offsets, adj)
  }

  /** Complete graph on `n` vertices — handy in tests. */
  def complete(n: Int): CSRGraph =
    fromEdges(for (u <- 0 until n; v <- u + 1 until n) yield (u, v), n)
}

/** A DAG produced by orienting an undirected graph along a total vertex
  * order: edges point from lower rank to higher rank. `rank` maps vertex →
  * position in the order. Out-adjacency lists are sorted by vertex id, so
  * clique listing's scans ([[repro.cliques.RecListCliques]]) emit their
  * candidates in ascending order.
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
}
