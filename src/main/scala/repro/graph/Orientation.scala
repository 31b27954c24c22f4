package repro.graph

import repro.par.Par

/** Low out-degree orientations (§3 "O(α)-Orientation", §5.4 relabeling).
  *
  * The paper obtains an O(α)-orientation via parallel Goodrich–Pszona /
  * Barenboim–Elkin. We substitute the classic degeneracy (smallest-last /
  * Matula–Beck) order, which gives the tight out-degree bound
  * `d ≤ 2α − 1` (appendix, footnote 9) — the same asymptotic guarantee the
  * paper relies on. Orienting along it yields a DAG whose maximum
  * out-degree bounds the work of REC-LIST-CLIQUES.
  */
object Orientation {

  sealed trait Order
  /** Smallest-last (degeneracy / k-core) order; out-degree ≤ degeneracy. */
  case object Degeneracy extends Order

  /** Computes the coreness of every vertex and a degeneracy ordering using
    * the linear-time Matula–Beck bucket peel. Returns (coreness, order)
    * where `order(i)` is the i-th vertex peeled.
    */
  def coreness(g: CSRGraph): (Array[Int], Array[Int]) = {
    val n = g.n
    val deg = Array.tabulate(n)(g.degree)
    val maxDeg = if (n == 0) 0 else deg.max
    // bucket sort vertices by degree
    val binStart = new Array[Int](maxDeg + 2)
    var v = 0
    while (v < n) { binStart(deg(v) + 1) += 1; v += 1 }
    var d = 0
    while (d <= maxDeg) { binStart(d + 1) += binStart(d); d += 1 }
    val pos = new Array[Int](n)
    val vert = new Array[Int](n)
    val cursor = java.util.Arrays.copyOf(binStart, binStart.length)
    v = 0
    while (v < n) {
      pos(v) = cursor(deg(v)); vert(pos(v)) = v; cursor(deg(v)) += 1
      v += 1
    }
    // bin(d) = index of first vertex with degree >= d during the peel
    val bin = java.util.Arrays.copyOf(binStart, binStart.length)
    val core = new Array[Int](n)
    val order = new Array[Int](n)
    var k = 0
    var i = 0
    while (i < n) {
      val u = vert(i)
      if (deg(u) > k) k = deg(u)
      core(u) = k
      order(i) = u
      g.foreachNeighbor(u) { w =>
        if (deg(w) > deg(u)) {
          // swap w to the front of its bin, then shrink its degree
          val dw = deg(w)
          val pw = pos(w)
          val pFirst = bin(dw)
          val first = vert(pFirst)
          if (first != w) {
            vert(pFirst) = w; vert(pw) = first
            pos(w) = pFirst; pos(first) = pw
          }
          bin(dw) += 1
          deg(w) = dw - 1
        }
      }
      i += 1
    }
    (core, order)
  }

  /** The degeneracy (maximum coreness) of the graph. */
  def degeneracy(g: CSRGraph): Int = {
    val (core, _) = coreness(g)
    if (core.isEmpty) 0 else core.max
  }

  /** Returns rank(v) = position of v in the degeneracy order. */
  def ranks(g: CSRGraph): Array[Int] = inverse(coreness(g)._2)

  private def inverse(perm: Array[Int]): Array[Int] = {
    val inv = new Array[Int](perm.length)
    var i = 0
    while (i < perm.length) { inv(perm(i)) = i; i += 1 }
    inv
  }

  /** Orients `g` along `rank`: each undirected edge {u,v} becomes u→v iff
    * rank(u) < rank(v). Out-adjacency stays sorted by vertex id. Both passes
    * over the vertices run in parallel.
    */
  def orient(g: CSRGraph, rank: Array[Int]): DirectedGraph = {
    val n = g.n
    val off = g.offsets
    val nbr = g.adj
    val offsets = new Array[Int](n + 1)
    Par.forRange(0, n) { v =>
      var c = 0
      var i = off(v)
      while (i < off(v + 1)) { if (rank(v) < rank(nbr(i))) c += 1; i += 1 }
      offsets(v + 1) = c
    }
    var v = 0
    while (v < n) { offsets(v + 1) += offsets(v); v += 1 }
    val adj = new Array[Int](offsets(n))
    Par.forRange(0, n) { v =>
      // source adjacency is sorted by id, and we append in that order
      var w = offsets(v)
      var i = off(v)
      while (i < off(v + 1)) {
        val u = nbr(i)
        if (rank(v) < rank(u)) { adj(w) = u; w += 1 }
        i += 1
      }
    }
    new DirectedGraph(offsets, adj)
  }

  /** Orients `g` by degeneracy; the one-case `order` is kept for `perfbench/.../Layers.scala`. */
  def orient(g: CSRGraph, order: Order = Degeneracy): DirectedGraph =
    orient(g, ranks(g))

  /** §5.4 graph relabeling: renames vertices so that id order == degeneracy
    * rank order. Returns the relabeled graph, its (identity-rank)
    * orientation, and `oldOf(newId) = oldId` for translating results back.
    * The one-case `order` is kept for `perfbench/.../Layers.scala`.
    */
  def relabelByRank(g: CSRGraph, order: Order = Degeneracy): (CSRGraph, DirectedGraph, Array[Int]) = {
    val oldOf = coreness(g)._2 // the degeneracy order: new id i is the i-th vertex peeled
    val relabeled = g.relabel(inverse(oldOf))
    (relabeled, orient(relabeled, Array.tabulate(relabeled.n)(identity)), oldOf)
  }
}
