package repro.par

import java.util.concurrent.{ForkJoinPool, RecursiveAction}
import java.util.concurrent.atomic.AtomicReference

/** Shared-memory parallel-for substrate.
  *
  * The paper runs on a 30-core machine with the ParlayLib work-stealing
  * scheduler; we substitute the JVM's [[ForkJoinPool]], which is also a
  * work-stealing scheduler. The pool parallelism is configurable so the
  * thread-scalability table (paper Fig. 14) can sweep thread counts.
  *
  * All parallel loops in the reproduction go through this object, so a
  * single [[Par.withThreads]] scope controls the effective parallelism of
  * the whole decomposition, and only [[Par.blocksFor]] decides how a pass is
  * split into blocks:
  *   - [[Par.forRange]]: a parallel for with work-stealing splits;
  *   - [[Par.forEachBlock]] / [[Par.forBlocked]]: a pass over fixed,
  *     contiguous blocks;
  *   - [[Par.scatter]]: a stable counting scatter (per-block histograms, a
  *     prefix, a scatter in block order);
  *   - [[Par.sortLongs]]: the JDK's parallel sort, run in the pool.
  */
object Par {

  /** Grain size below which a range is executed sequentially. */
  val Grain: Int = 64

  private val poolRef = new AtomicReference[ForkJoinPool](ForkJoinPool.commonPool())

  /** The pool used by all parallel loops. */
  def pool: ForkJoinPool = poolRef.get()

  /** Current parallelism of the active pool. */
  def parallelism: Int = pool.getParallelism

  /** Runs `body` with a dedicated pool of `threads` workers; restores the
    * previous pool afterwards. `threads <= 1` runs loops sequentially (the
    * pool is still created for structural uniformity but never splits).
    */
  def withThreads[A](threads: Int)(body: => A): A = {
    require(threads >= 1, s"threads must be >= 1, got $threads")
    val fresh = new ForkJoinPool(threads)
    val prev  = poolRef.getAndSet(fresh)
    try body
    finally {
      poolRef.set(prev)
      fresh.shutdown()
    }
  }

  private final class RangeAction(lo: Int, hi: Int, grain: Int, f: Int => Unit)
      extends RecursiveAction {
    override def compute(): Unit = {
      if (hi - lo <= grain) {
        var i = lo
        while (i < hi) { f(i); i += 1 }
      } else {
        val mid   = lo + (hi - lo) / 2
        val left  = new RangeAction(lo, mid, grain, f)
        val right = new RangeAction(mid, hi, grain, f)
        left.fork()
        right.compute()
        left.join()
      }
    }
  }

  /** Parallel `for (i <- lo until hi) f(i)` with work-stealing splits. */
  def forRange(lo: Int, hi: Int, grain: Int = Grain)(f: Int => Unit): Unit = {
    if (hi <= lo) return
    val p = pool
    if (p.getParallelism <= 1 || hi - lo <= grain) {
      var i = lo
      while (i < hi) { f(i); i += 1 }
    } else {
      p.invoke(new RangeAction(lo, hi, grain, f))
    }
  }

  /** Items per block of a pass over an array (a scan, a count or a
    * scatter): a pass over at most this many items runs on the calling
    * thread.
    */
  final val BlockGrain = 4096

  /** Number of fixed blocks for a parallel pass over `n` items: 1 when
    * `n <= grain` or on one thread, so the pass runs on the caller's thread,
    * else up to 4 per worker with at least `grain` items each.
    */
  def blocksFor(n: Int, grain: Int = BlockGrain): Int = {
    val p = parallelism
    if (p <= 1 || n <= grain) 1
    else math.min((n + grain - 1L) / grain, p * 4L).toInt
  }

  /** Runs `f(b, lo, hi)` for each of the `blocks` contiguous, near-equal
    * blocks of [0, n), in parallel. The boundaries depend only on `n` and
    * `blocks`, so two passes over the same split see the same blocks, and
    * block b precedes block b + 1.
    */
  def forEachBlock(n: Int, blocks: Int)(f: (Int, Int, Int) => Unit): Unit =
    forRange(0, blocks, grain = 1) { b =>
      f(b, (b.toLong * n / blocks).toInt, ((b + 1L) * n / blocks).toInt)
    }

  /** Parallel loop that hands each block of [lo, hi) ([[blocksFor]] of
    * them) to `f(blockLo, blockHi)`; useful when per-iteration state
    * (scratch buffers) should be allocated once per block rather than once
    * per element.
    */
  def forBlocked(lo: Int, hi: Int, grain: Int = Grain)(f: (Int, Int) => Unit): Unit =
    if (hi > lo) forEachBlock(hi - lo, blocksFor(hi - lo, grain))((_, blo, bhi) => f(lo + blo, lo + bhi))

  /** Stable counting scatter (ParlayLib's counting sort) of the items
    * 0 until n into `buckets` buckets. It runs over [[blocksFor]]'s blocks,
    * at most n / buckets of them so that their histograms hold no more
    * entries than there are items, in three steps:
    *   - `count(lo, hi, hist)` adds 1 to `hist(d)` for each item of block
    *     [lo, hi) that goes to bucket d (an item may go to none);
    *   - `start(d, size)` is told the size of bucket d, in bucket order, and
    *     returns the position of its first item;
    *   - `place(lo, hi, pos)` visits the items of [lo, hi) in order and puts
    *     each at `pos(d)` of its bucket d, then adds 1 to `pos(d)`.
    * Block b starts in each bucket after blocks 0 until b (bucket-major,
    * block-minor), so a bucket's items get consecutive positions in item
    * order. The callers write the per-item loops: calling a function per
    * item from loops shared by every caller cost about 5% of a truss-orkut
    * `decompose` call (4 threads on a 4-vCPU VM).
    */
  def scatter(n: Int, buckets: Int)(count: (Int, Int, Array[Int]) => Unit)(start: (Int, Int) => Int)(
      place: (Int, Int, Array[Int]) => Unit
  ): Unit = {
    val blocks = scatterBlocks(n, buckets)
    val hist = Array.ofDim[Int](blocks, buckets)
    forEachBlock(n, blocks)((b, lo, hi) => count(lo, hi, hist(b)))
    var d = 0
    while (d < buckets) {
      var total = 0
      var b = 0
      while (b < blocks) { total += hist(b)(d); b += 1 }
      var pos = start(d, total)
      b = 0
      while (b < blocks) { val c = hist(b)(d); hist(b)(d) = pos; pos += c; b += 1 }
      d += 1
    }
    forEachBlock(n, blocks)((b, lo, hi) => place(lo, hi, hist(b)))
  }

  /** The number of blocks [[scatter]] splits `n` items into. */
  private[par] def scatterBlocks(n: Int, buckets: Int): Int =
    math.min(blocksFor(n), math.max(1, n / math.max(1, buckets)))

  /** Sorts `a(lo until hi)` in place: on one thread with the JDK's sort,
    * else with its parallel sort run as a task of [[pool]], so that it forks
    * into the pool rather than the common pool and a [[withThreads]] scope
    * bounds it like every loop.
    */
  def sortLongs(a: Array[Long], lo: Int, hi: Int): Unit = {
    val p = pool
    if (p.getParallelism <= 1) java.util.Arrays.sort(a, lo, hi)
    else p.invoke(new RecursiveAction { override def compute(): Unit = java.util.Arrays.parallelSort(a, lo, hi) })
  }
}
