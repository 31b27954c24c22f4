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

/** Sorted-array set intersection: UPDATE's common-neighbor kernel and the
  * out-neighbor intersections of REC-LIST-CLIQUES share one merge/galloping
  * loop ([[intersect]]). The paper's theory uses the parallel hash tables of
  * [29]; its GBBS implementation, like this one, intersects sorted arrays.
  */
object Intersect {

  /** [[intersect]] merges while the longer list is at most this many times
    * the shorter one, and gallops beyond.
    */
  private final val GallopRatio = 16

  /** Writes the common undirected neighbors of the distinct vertices
    * `vs(0 until len)` into `out` (sorted ascending) and returns the count.
    * No member of `vs` is ever in the result: a vertex is not its own
    * neighbor.
    *
    * The members are taken in ascending degree order: the two smallest
    * adjacency lists are intersected into `out`, which is then filtered in
    * place against each remaining list, stopping once it is empty. Each step
    * is an [[intersect]] whose first list is no longer than its second, so
    * a call costs O(len² + d_min · Σ_j (1 + log(d_j / d_min))) over the
    * other members j, where d_min is the minimum member degree: that is
    * O(d_min · (1 + log(d_max / d_min))) for a fixed r. Lemma 4.1 charges the
    * intersection to the minimum-degree member, and this stays within that
    * accounting up to the log factor. Adjacency is read directly from
    * [[Adjacency.adj]] at [[Adjacency.offsets]]; nothing is allocated.
    */
  def commonNeighbors(g: Adjacency, vs: Array[Int], len: Int, out: Array[Int]): Int = {
    require(len >= 1 && len <= 32, s"need 1 to 32 query vertices, got $len")
    val adj = g.adj
    val off = g.offsets
    if (len == 1) {
      val v = vs(0)
      val d = g.degree(v)
      System.arraycopy(adj, off(v), out, 0, d)
      return d
    }
    val ia = minDegreeIndex(g, vs, len, 0)
    var used = 1 << ia // bit i set once vs(i) has been intersected
    val ib = minDegreeIndex(g, vs, len, used)
    used |= 1 << ib
    val a = vs(ia)
    val b = vs(ib)
    var k = intersect(adj, off(a), g.degree(a), adj, off(b), g.degree(b), out)
    var left = len - 2
    while (k > 0 && left > 0) {
      val i = minDegreeIndex(g, vs, len, used)
      used |= 1 << i
      val v = vs(i)
      k = intersect(out, 0, k, adj, off(v), g.degree(v), out)
      left -= 1
    }
    k
  }

  /** Index of the minimum-degree member of `vs(0 until len)` whose bit in
    * `used` is clear (ties go to the lowest index).
    */
  private def minDegreeIndex(g: Adjacency, vs: Array[Int], len: Int, used: Int): Int = {
    var best = -1
    var bestDeg = Int.MaxValue
    var i = 0
    while (i < len) {
      if ((used & (1 << i)) == 0) {
        val d = g.degree(vs(i))
        if (d < bestDeg) { best = i; bestDeg = d }
      }
      i += 1
    }
    best
  }

  /** Writes the intersection of the sorted, duplicate-free lists
    * `a(aLo until aLo+aLen)` and `b(bLo until bLo+bLen)` into `out` from
    * index 0, ascending, and returns its size. `out` may be `a` itself when
    * `aLo == 0` (each write lands at or before the element just read).
    *
    * While `aLen · 16 >= bLen` the lists are merged in O(aLen + bLen);
    * otherwise each element of `a` gallops through `b` (an exponential
    * search from the last position, then a binary search), in
    * O(aLen · log(bLen / aLen)) total. So with `a` the shorter list a call
    * costs O(aLen · (1 + log(bLen / aLen))).
    */
  def intersect(a: Array[Int], aLo: Int, aLen: Int, b: Array[Int], bLo: Int, bLen: Int, out: Array[Int]): Int = {
    val aHi = aLo + aLen
    val bHi = bLo + bLen
    var i = aLo
    var j = bLo
    var k = 0
    if (aLen.toLong * GallopRatio >= bLen) {
      while (i < aHi && j < bHi) {
        val x = a(i)
        val y = b(j)
        if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
        else if (x < y) i += 1
        else j += 1
      }
    } else {
      while (i < aHi && j < bHi) {
        val x = a(i)
        if (b(j) < x) {
          // invariant: b(lo) < x, and b(hi) >= x or hi == bHi
          var lo = j
          var step = 1
          while (step < bHi - lo && b(lo + step) < x) { lo += step; step <<= 1 }
          var hi = if (step < bHi - lo) lo + step else bHi
          while (hi - lo > 1) {
            val mid = (lo + hi) >>> 1
            if (b(mid) < x) lo = mid else hi = mid
          }
          j = hi
        }
        if (j < bHi && b(j) == x) { out(k) = x; k += 1; j += 1 }
        i += 1
      }
    }
    k
  }
}
