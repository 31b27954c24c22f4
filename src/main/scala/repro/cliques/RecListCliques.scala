package repro.cliques

import repro.graph.{Adjacency, DirectedGraph}
import repro.par.Par

/** Parallel c-clique listing (paper Algorithm 1, after Shi et al. [60]).
  *
  * Cliques are grown along a low out-degree orientation: each root's
  * out-neighbours are marked once in a per-worker stamp array ([[Marks]]),
  * and each level keeps the out-neighbours of the vertex just added whose
  * stamp says they are still candidates (Chiba–Nishizeki's marking). Every
  * (candidate, vertex) step scans one out-list, so with an O(α)-oriented DAG
  * this lists all c-cliques in O(mα^{c−2}) work.
  *
  * Parallelism is over blocks of at least [[RootGrain]] root vertices, split
  * by [[Par.blocksFor]] into contiguous, disjoint, ascending ranges; each
  * block gets its own consumer (from `consumerFactory`), scratch buffers and
  * stamp array, so consumers can accumulate thread-locally without
  * contention. A caller that keeps one buffer per block and concatenates
  * them in block order (`listSortedCliques`, through
  * [[repro.core.IntBuffer.collectBlocks]]) gets the cliques grouped by
  * ascending root. The clique buffer passed to consumers is reused — copy it
  * if you keep it. Vertices appear in orientation (rank) order.
  */
object RecListCliques {

  /** Enumerates every k-clique of the oriented graph `dg` (k ≥ 1). */
  def foreachClique(dg: DirectedGraph, k: Int)(consumerFactory: () => Array[Int] => Unit): Unit = {
    require(k >= 1, s"clique size must be >= 1, got $k")
    forRootBlocks(dg) { roots => foreachCliqueFromRoots(dg, k, roots)(consumerFactory()) }
  }

  /** Counts k-cliques in parallel over [[foreachClique]]'s blocks of roots;
    * each block adds its total to the shared sum once.
    */
  def countCliques(dg: DirectedGraph, k: Int): Long = {
    require(k >= 1, s"clique size must be >= 1, got $k")
    val acc = new java.util.concurrent.atomic.LongAdder
    forRootBlocks(dg) { roots => acc.add(countFromRoots(dg, k, roots)) }
    acc.sum()
  }

  /** Roots per block, at least, of the parallel listings. */
  private[repro] final val RootGrain = 16

  /** Runs `f` on each block of root vertices, in parallel. */
  private def forRootBlocks(dg: DirectedGraph)(f: Iterator[Int] => Unit): Unit =
    Par.forBlocked(0, dg.n, RootGrain) { (lo, hi) => f(Iterator.range(lo, hi)) }

  /** Sequentially enumerates the k-cliques rooted at each vertex drawn from
    * `roots` (a root's cliques are those whose orientation-minimal vertex it
    * is), in root order. The parallel listings run it over each block of
    * roots.
    */
  private[repro] def foreachCliqueFromRoots(dg: DirectedGraph, k: Int, roots: Iterator[Int])(f: Array[Int] => Unit): Unit = {
    require(k >= 1, s"clique size must be >= 1, got $k")
    val clique = new Array[Int](k)
    val off = dg.offsets
    val adj = dg.adj
    if (k <= 2) {
      while (roots.hasNext) {
        val v = roots.next()
        clique(0) = v
        if (k == 1) f(clique)
        else {
          var i = off(v)
          while (i < off(v + 1)) { clique(1) = adj(i); f(clique); i += 1 }
        }
      }
      return
    }
    val bufs = Array.ofDim[Int](k - 3, math.max(1, dg.maxOutDegree))
    val marks = Marks.acquire(dg.n)
    try {
      while (roots.hasNext) {
        val v = roots.next()
        clique(0) = v
        val lo = off(v)
        val d = off(v + 1) - lo
        if (d >= k - 1) {
          val tag = marks.fresh(k - 2)
          stampAll(marks.stamp, adj, lo, d, tag)
          rec(dg, marks.stamp, k - 1, 1, clique, adj, lo, d, tag, bufs, 0, f)
        }
      }
    } finally Marks.release(marks)
  }

  /** Sequentially counts the k-cliques rooted at each vertex drawn from
    * `roots`. [[countCliques]] runs it over each block of roots.
    */
  private[repro] def countFromRoots(dg: DirectedGraph, k: Int, roots: Iterator[Int]): Long = {
    var total = 0L
    foreachCliqueFromRoots(dg, k, roots)(_ => total += 1)
    total
  }

  /** Enumerates cliques of size `need` (≥ 1) drawn from the sorted candidate
    * set `cand(0 until candLen)` using directed adjacency, appending the
    * chosen vertices to `clique(baseLen until baseLen+need)` and invoking
    * `f(clique)` for each completion. This is UPDATE's use of Algorithm 1:
    * `cand` is the intersection of the undirected neighborhoods of a peeled
    * r-clique, and completions extend it to full s-cliques. With `need ≥ 2`
    * the candidates are stamped in a stamp array from [[Marks]], and `bufs`
    * needs `need − 2` rows of at least `dg.maxOutDegree` entries.
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
    if (need == 1) {
      var i = 0
      while (i < candLen) { clique(baseLen) = cand(i); f(clique); i += 1 }
    } else if (candLen >= need) {
      val marks = Marks.acquire(dg.n)
      try {
        val tag = marks.fresh(need - 1)
        stampAll(marks.stamp, cand, 0, candLen, tag)
        rec(dg, marks.stamp, need, baseLen, clique, cand, 0, candLen, tag, bufs, 0, f)
      } finally Marks.release(marks)
    }
  }

  /** REC-LIST-CLIQUES' recursion: extends `clique(0 until depth)` by
    * `rl ≥ 2` vertices drawn from the sorted candidates
    * `cand(candLo until candLo + candLen)`, which are exactly the vertices
    * whose `stamp` is `tag`. Each level below writes its candidates into
    * `bufs(bufIdx)` onwards, raises their stamps to `tag + 1` for the
    * recursion and lowers them back afterwards; the last level emits straight
    * from the scan. Uses the tags `tag until tag + rl − 1`.
    */
  private def rec(
      dg: DirectedGraph,
      stamp: Array[Int],
      rl: Int,
      depth: Int,
      clique: Array[Int],
      cand: Array[Int],
      candLo: Int,
      candLen: Int,
      tag: Int,
      bufs: Array[Array[Int]],
      bufIdx: Int,
      f: Array[Int] => Unit
  ): Unit = {
    val off = dg.offsets
    val adj = dg.adj
    var i = candLo
    val iHi = candLo + candLen
    if (rl == 2) {
      while (i < iHi) {
        val u = cand(i)
        clique(depth) = u
        var j = off(u)
        val jHi = off(u + 1)
        while (j < jHi) {
          val w = adj(j)
          if (stamp(w) == tag) { clique(depth + 1) = w; f(clique) }
          j += 1
        }
        i += 1
      }
      return
    }
    val next = bufs(bufIdx)
    while (i < iHi) {
      val u = cand(i)
      clique(depth) = u
      val nl = scanOut(dg, stamp, u, tag, next)
      if (nl >= rl - 1) {
        stampAll(stamp, next, 0, nl, tag + 1)
        rec(dg, stamp, rl - 1, depth + 1, clique, next, 0, nl, tag + 1, bufs, bufIdx + 1, f)
        stampAll(stamp, next, 0, nl, tag)
      }
      i += 1
    }
  }

  /** Listing's intersection step: writes the out-neighbours `w` of `u` with
    * `stamp(w) == tag` into `out`, ascending (out-lists are sorted by id),
    * and returns how many there are. Costs O(outdeg(u)).
    */
  private[repro] def scanOut(dg: DirectedGraph, stamp: Array[Int], u: Int, tag: Int, out: Array[Int]): Int =
    keepStamped(stamp, tag, dg.adj, dg.offsets(u), dg.outDegree(u), out)

  /** Writes the entries `w` of `vs(lo until lo + len)` with `stamp(w) == tag`
    * into `out` from index 0, in order, and returns how many there are.
    */
  private[repro] def keepStamped(stamp: Array[Int], tag: Int, vs: Array[Int], lo: Int, len: Int, out: Array[Int]): Int = {
    var k = 0
    var j = lo
    while (j < lo + len) {
      val w = vs(j)
      if (stamp(w) == tag) { out(k) = w; k += 1 }
      j += 1
    }
    k
  }

  /** Sets `stamp(w) = tag` for every `w` in `vs(lo until lo + len)`. */
  private[repro] def stampAll(stamp: Array[Int], vs: Array[Int], lo: Int, len: Int, tag: Int): Unit = {
    var i = lo
    while (i < lo + len) { stamp(vs(i)) = tag; i += 1 }
  }
}

/** A dense stamp array over the vertex ids `0 until stamp.length`, for
  * constant-time membership tests in the clique and intersection kernels:
  * a set is marked by writing a fresh tag at its members, and `w` is in it
  * while `stamp(w)` holds that tag. Tags only grow, so nothing is cleared
  * between uses; the array is zero-filled only when the next tag would pass
  * `Int.MaxValue`.
  *
  * Arrays are handed out by [[Marks.acquire]] and returned by
  * [[Marks.release]], from a free list per thread. An array is never on a
  * free list while in use, so a ForkJoin worker that runs another task
  * while joining, or a consumer that re-enters a kernel, gets a second
  * array rather than the one in use.
  */
private[repro] final class Marks private (val stamp: Array[Int], private[cliques] var tag: Int) {

  /** Reserves the `levels` consecutive tags `base until base + levels` and
    * returns `base`, which is above every stamp in the array.
    */
  def fresh(levels: Int): Int = {
    if (tag > Int.MaxValue - levels) {
      java.util.Arrays.fill(stamp, 0)
      tag = 0
    }
    val base = tag + 1
    tag += levels
    base
  }
}

private[repro] object Marks {
  private val free = ThreadLocal.withInitial[java.util.ArrayDeque[Marks]](() => new java.util.ArrayDeque[Marks]())

  /** The tag a newly allocated array starts from. */
  @volatile private var firstTag = 0

  /** A stamp array covering the vertex ids `0 until n`, to be returned with
    * [[release]] by the thread that acquired it. Throws if `n` stamps per
    * worker of the pool would not fit in the heap.
    */
  def acquire(n: Int): Marks = {
    val m = free.get.pollLast()
    if (m != null && m.stamp.length >= n) m
    else {
      val workers = Par.parallelism
      val bytes = 4L * n * workers
      require(
        bytes <= Runtime.getRuntime.maxMemory,
        s"stamp arrays of n = $n vertices × 4 bytes for a pool of $workers workers need $bytes bytes, " +
          s"more than the heap of ${Runtime.getRuntime.maxMemory} bytes"
      )
      new Marks(new Array[Int](n), firstTag)
    }
  }

  /** Puts `m`, acquired on this thread, back on this thread's free list. */
  def release(m: Marks): Unit = { val _ = free.get.offerLast(m) }

  /** Test hook: arrays allocated from now on start at tag `start`, and this
    * thread's free arrays, stamps kept, move on to it if they are below it.
    */
  private[cliques] def restartTags(start: Int): Unit = {
    firstTag = start
    free.get.forEach(m => m.tag = math.max(m.tag, start))
  }
}

/** UPDATE's common-neighbour kernel ([[commonNeighbors]]). The paper's
  * theory intersects with the parallel hash tables of [29]; here a step
  * marks its shorter list in a per-worker stamp array ([[Marks]]) and scans
  * the longer one against the marks, and gallops through the longer list
  * ([[intersect]]) when it is much longer.
  */
object Intersect {

  /** A step marks and scans while the longer list is at most this many
    * times the shorter one, and gallops beyond.
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
    * intersects a shorter list `a` with a longer list `b`: while
    * `|b| <= 16 |a|` it stamps `a` with a fresh tag and keeps the entries of
    * `b` that carry it, in O(|a| + |b|) = O(|a|); beyond that it gallops, in
    * O(|a| · log(|b| / |a|)). Every `a` is a subset of the minimum-degree
    * member's list, so a call costs O(len² + d_min · Σ_j (1 + log(d_j / d_min)))
    * over the other members j: Lemma 4.1's charge to the minimum-degree
    * member, up to the log factor of galloping. Adjacency is read directly
    * from [[Adjacency.adj]] at [[Adjacency.offsets]]; the stamp array comes
    * from this thread's free list, and nothing is allocated once it exists.
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
    val marks = Marks.acquire(g.n)
    try {
      var tag = marks.fresh(len - 1)
      val ia = minDegreeIndex(g, vs, len, 0)
      var used = 1 << ia // bit i set once vs(i) has been intersected
      val ib = minDegreeIndex(g, vs, len, used)
      used |= 1 << ib
      val a = vs(ia)
      val b = vs(ib)
      var k = intersectStep(marks.stamp, tag, adj, off(a), g.degree(a), adj, off(b), g.degree(b), out)
      var left = len - 2
      while (k > 0 && left > 0) {
        val i = minDegreeIndex(g, vs, len, used)
        used |= 1 << i
        val v = vs(i)
        tag += 1
        k = intersectStep(marks.stamp, tag, out, 0, k, adj, off(v), g.degree(v), out)
        left -= 1
      }
      k
    } finally Marks.release(marks)
  }

  /** One intersection step of [[commonNeighbors]], with `aLen <= bLen`:
    * writes `a(aLo until aLo+aLen) ∩ b(bLo until bLo+bLen)` into `out` from
    * index 0, ascending, and returns its size. Marks `a` with `tag` and scans
    * `b` while `bLen <= GallopRatio · aLen`, and gallops otherwise. `out`
    * may be `a` itself when `aLo == 0`.
    */
  private def intersectStep(
      stamp: Array[Int],
      tag: Int,
      a: Array[Int],
      aLo: Int,
      aLen: Int,
      b: Array[Int],
      bLo: Int,
      bLen: Int,
      out: Array[Int]
  ): Int = {
    if (bLen > aLen.toLong * GallopRatio) intersect(a, aLo, aLen, b, bLo, bLen, out)
    else {
      RecListCliques.stampAll(stamp, a, aLo, aLen, tag)
      RecListCliques.keepStamped(stamp, tag, b, bLo, bLen, out)
    }
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
    * Each element of `a` gallops through `b` (an exponential search from the
    * last position, then a binary search), in O(aLen · (1 + log(bLen / aLen)))
    * total, which is cheap when `a` is much the shorter list.
    */
  def intersect(a: Array[Int], aLo: Int, aLen: Int, b: Array[Int], bLo: Int, bLen: Int, out: Array[Int]): Int = {
    val aHi = aLo + aLen
    val bHi = bLo + bLen
    var i = aLo
    var j = bLo
    var k = 0
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
    k
  }
}
