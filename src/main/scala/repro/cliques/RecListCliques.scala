package repro.cliques

import repro.graph.{Adjacency, DirectedGraph}
import repro.par.Par

/** Parallel c-clique listing (paper Algorithm 1, after Shi et al. [60]).
  *
  * Cliques are grown along a low out-degree orientation: a candidate set of
  * common directed neighbors is intersected with the out-neighborhood of
  * each vertex added to the clique. With an O(α)-oriented DAG this lists
  * all c-cliques in O(mα^{c−2}) work.
  *
  * Parallelism is over root vertices ([[Par.forBlocked]]); each parallel
  * block gets its own consumer (from `consumerFactory`) and scratch
  * buffers, so consumers can accumulate thread-locally without contention.
  * The clique buffer passed to consumers is reused — copy it if you keep it.
  * Vertices appear in orientation (rank) order.
  */
object RecListCliques {

  /** Enumerates every k-clique of the oriented graph `dg` (k ≥ 1). */
  def foreachClique(dg: DirectedGraph, k: Int)(consumerFactory: () => Array[Int] => Unit): Unit = {
    require(k >= 1, s"clique size must be >= 1, got $k")
    Par.forBlocked(0, dg.n, grain = 16) { (lo, hi) =>
      foreachCliqueFromRoots(dg, k, Iterator.range(lo, hi))(consumerFactory())
    }
  }

  /** Counts k-cliques (a foreachClique wrapper; one atomic add per clique,
    * which is fine at reproduction scales).
    */
  def countCliques(dg: DirectedGraph, k: Int): Long = {
    val acc = new java.util.concurrent.atomic.AtomicLong(0L)
    foreachClique(dg, k) { () => clique =>
      acc.incrementAndGet()
      val _ = clique
    }
    acc.get()
  }

  /** Sequentially enumerates the k-cliques rooted at each vertex drawn from
    * `roots` (a root's cliques are those whose orientation-minimal vertex it
    * is), in root order. The parallel [[foreachClique]] runs it over each
    * block of roots; the Spark fan-out runs it over each partition's roots.
    */
  def foreachCliqueFromRoots(dg: DirectedGraph, k: Int, roots: Iterator[Int])(f: Array[Int] => Unit): Unit = {
    require(k >= 1, s"clique size must be >= 1, got $k")
    val clique = new Array[Int](k)
    val bufs = Array.ofDim[Int](math.max(1, k - 1), math.max(1, dg.maxOutDegree))
    while (roots.hasNext) {
      val v = roots.next()
      clique(0) = v
      if (k == 1) f(clique)
      else {
        var len = 0
        var i = dg.offsets(v)
        val iHi = dg.offsets(v + 1)
        while (i < iHi) { bufs(0)(len) = dg.adj(i); len += 1; i += 1 }
        if (len >= k - 1) rec(dg, k - 1, 1, clique, bufs(0), len, bufs, 1, f)
      }
    }
  }

  /** Sequentially counts the k-cliques rooted at each vertex drawn from
    * `roots`. Used by the Spark fan-out, where parallelism comes from the
    * partitioning rather than from [[repro.par.Par]].
    */
  def countFromRoots(dg: DirectedGraph, k: Int, roots: Iterator[Int]): Long = {
    var total = 0L
    foreachCliqueFromRoots(dg, k, roots)(_ => total += 1)
    total
  }

  /** Enumerates cliques of size `need` (≥ 1) drawn from the sorted candidate
    * set `cand(0 until candLen)` using directed adjacency, appending the
    * chosen vertices to `clique(baseLen until baseLen+need)` and invoking
    * `f(clique)` for each completion. This is UPDATE's use of Algorithm 1:
    * `cand` is the intersection of the undirected neighborhoods of a peeled
    * r-clique, and completions extend it to full s-cliques.
    */
  def foreachCompletion(
      dg: DirectedGraph,
      cand: Array[Int],
      candLen: Int,
      need: Int,
      clique: Array[Int],
      baseLen: Int,
      bufs: Array[Array[Int]]
  )(f: Array[Int] => Unit): Unit = {
    require(need >= 1, s"need must be >= 1, got $need")
    // Same loop as rec's leaf, kept as its own call site: (2,3) and (3,4)
    // UPDATE only reach this one, so the JIT sees one consumer type here
    // rather than every listing consumer that reaches rec's leaf.
    if (need == 1) {
      var i = 0
      while (i < candLen) { clique(baseLen) = cand(i); f(clique); i += 1 }
    } else rec(dg, need, baseLen, clique, cand, candLen, bufs, 0, f)
  }

  /** REC-LIST-CLIQUES' recursion: extends `clique(0 until depth)` by `rl`
    * vertices drawn from the sorted candidates `cand(0 until candLen)`,
    * writing each level's next candidates into `bufs(bufIdx)` onwards.
    */
  private def rec(
      dg: DirectedGraph,
      rl: Int,
      depth: Int,
      clique: Array[Int],
      cand: Array[Int],
      candLen: Int,
      bufs: Array[Array[Int]],
      bufIdx: Int,
      f: Array[Int] => Unit
  ): Unit = {
    if (rl == 1) {
      var i = 0
      while (i < candLen) { clique(depth) = cand(i); f(clique); i += 1 }
      return
    }
    val next = bufs(bufIdx)
    var i = 0
    while (i < candLen) {
      val u = cand(i)
      clique(depth) = u
      val nl = dg.intersectOut(cand, candLen, u, next)
      if (nl >= rl - 1) rec(dg, rl - 1, depth + 1, clique, next, nl, bufs, bufIdx + 1, f)
      i += 1
    }
  }
}

/** Sorted-adjacency set intersection helpers (paper §3 parallel hash-table
  * intersections; the practical implementation intersects sorted arrays).
  */
object Intersect {

  /** Writes the common undirected neighbors of `vs(0 until len)` into `out`
    * (sorted ascending) and returns the count. Starts from the
    * minimum-degree member — the Lemma 4.1 accounting — and filters via
    * galloping binary search in the others' adjacency lists.
    */
  def commonNeighbors(g: Adjacency, vs: Array[Int], len: Int, out: Array[Int]): Int = {
    require(len >= 1, "need at least one vertex")
    var minI = 0
    var i = 1
    while (i < len) { if (g.degree(vs(i)) < g.degree(vs(minI))) minI = i; i += 1 }
    val pivot = vs(minI)
    var k = 0
    g.foreachNeighbor(pivot) { w =>
      var ok = true
      var j = 0
      while (ok && j < len) {
        if (j != minI && !(g.hasEdge(vs(j), w) || vs(j) == w)) ok = false
        j += 1
      }
      // w must be a neighbor of every vs(j); w == vs(j) is impossible since
      // simple graphs have no self loops, so exclude it explicitly.
      if (ok) {
        var member = false
        var t = 0
        while (t < len) { if (vs(t) == w) member = true; t += 1 }
        if (!member) { out(k) = w; k += 1 }
      }
    }
    k
  }
}
