package repro.par

import java.util.concurrent.{ForkJoinPool, ForkJoinTask, RecursiveAction}
import java.util.concurrent.atomic.AtomicReference

/** Shared-memory parallel-for substrate.
  *
  * The paper runs on a 30-core machine with the ParlayLib work-stealing
  * scheduler; we substitute the JVM's [[ForkJoinPool]], which is also a
  * work-stealing scheduler. The pool parallelism is configurable so the
  * thread-scalability table (paper Fig. 14) can sweep thread counts.
  *
  * All parallel loops in the reproduction go through [[Par.forRange]] /
  * [[Par.forBlocked]], so a single [[Par.withThreads]] scope controls the
  * effective parallelism of the whole decomposition.
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

  /** Number of fixed blocks for a two-pass parallel loop over `n` items
    * (count, then scatter): 1 when `n <= grain` or on one thread, so the
    * loop runs on the caller's thread, else up to 4 per worker with at
    * least `grain` items each.
    */
  def blocksFor(n: Int, grain: Int): Int = {
    val p = parallelism
    if (p <= 1 || n <= grain) 1
    else math.min((n + grain - 1L) / grain, p * 4L).toInt
  }

  /** Runs `f(b, lo, hi)` for each of the `blocks` contiguous, near-equal
    * blocks of [0, n), in parallel. The boundaries depend only on `n` and
    * `blocks`, so two passes over the same split see the same blocks.
    */
  def forEachBlock(n: Int, blocks: Int)(f: (Int, Int, Int) => Unit): Unit =
    forRange(0, blocks, grain = 1) { b =>
      f(b, (b.toLong * n / blocks).toInt, ((b + 1L) * n / blocks).toInt)
    }

  /** Turns per-block bucket counts `hist(b)(d)` into write positions, in
    * place: `firstPos(d, total)` gets bucket d's total count and returns
    * where the bucket starts, and block b starts in bucket d after the items
    * of blocks 0 until b (bucket-major, block-minor). A scatter that visits
    * each block's items in order is therefore stable.
    */
  def toBlockOffsets(hist: Array[Array[Int]], buckets: Int)(firstPos: (Int, Int) => Int): Unit = {
    var d = 0
    while (d < buckets) {
      var total = 0
      var b = 0
      while (b < hist.length) { total += hist(b)(d); b += 1 }
      var pos = firstPos(d, total)
      b = 0
      while (b < hist.length) {
        val c = hist(b)(d)
        hist(b)(d) = pos
        pos += c
        b += 1
      }
      d += 1
    }
  }

  /** Sorts `a(lo until hi)` in place with the JDK's parallel sort, run in
    * [[pool]] so that a [[withThreads]] scope bounds it like every loop.
    */
  def sortLongs(a: Array[Long], lo: Int, hi: Int): Unit = {
    val p = pool
    if (p.getParallelism <= 1) java.util.Arrays.sort(a, lo, hi)
    else p.invoke(new RecursiveAction {
      override def compute(): Unit = java.util.Arrays.parallelSort(a, lo, hi)
    })
  }

  /** Parallel loop that hands each worker a contiguous block [blockLo,
    * blockHi); useful when per-iteration state (scratch buffers) should be
    * allocated once per block rather than once per element.
    */
  def forBlocked(lo: Int, hi: Int, grain: Int = Grain)(f: (Int, Int) => Unit): Unit = {
    if (hi <= lo) return
    val p = pool
    if (p.getParallelism <= 1 || hi - lo <= grain) { f(lo, hi); return }
    // Split into ~4x as many blocks as workers for load balance.
    val blocks    = math.max(1, math.min((hi - lo + grain - 1) / grain, p.getParallelism * 4))
    val blockSize = (hi - lo + blocks - 1) / blocks
    p.invoke(new RecursiveAction {
      override def compute(): Unit = {
        val actions = (0 until blocks).map { b =>
          val bl = lo + b * blockSize
          val bh = math.min(hi, bl + blockSize)
          new RecursiveAction { override def compute(): Unit = if (bl < bh) f(bl, bh) }
        }
        ForkJoinTask.invokeAll(actions.toArray[ForkJoinTask[_]]: _*)
      }
    })
  }
}
