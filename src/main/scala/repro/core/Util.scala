package repro.core

import repro.par.Par

/** Growable primitive int buffer (no boxing). */
final class IntBuffer(initialCapacity: Int = 16) {
  private var arr = new Array[Int](math.max(4, initialCapacity))
  private var len = 0

  def size: Int = len
  def isEmpty: Boolean = len == 0
  def apply(i: Int): Int = arr(i)

  def +=(x: Int): Unit = {
    if (len == arr.length) arr = java.util.Arrays.copyOf(arr, arr.length * 2)
    arr(len) = x
    len += 1
  }

  def clear(): Unit = len = 0

  /** Grows the buffer by `k` cells, to be written through [[unsafeArray]],
    * and returns the index of the first one.
    */
  def extend(k: Int): Int = {
    val at = len
    if (at + k > arr.length) arr = java.util.Arrays.copyOf(arr, math.max(at + k, arr.length * 2))
    len = at + k
    at
  }

  def toArray: Array[Int] = java.util.Arrays.copyOf(arr, len)

  /** Direct access to the backing array (valid up to [[size]]). */
  def unsafeArray: Array[Int] = arr

  def foreach(f: Int => Unit): Unit = {
    var i = 0
    while (i < len) { f(arr(i)); i += 1 }
  }
}

object IntBuffer {

  /** Runs `fill(lo, hi, out)` on the blocks of [0, n) (see
    * [[Par.blocksFor]]) in parallel, block b into the b-th buffer, and
    * returns the buffers concatenated in block order, copied in parallel.
    * Throws if they hold more than an `Int` array can.
    */
  def collectBlocks(n: Int, grain: Int = Par.BlockGrain)(fill: (Int, Int, IntBuffer) => Unit): Array[Int] = {
    val blocks = Par.blocksFor(n, grain)
    val parts = Array.fill(blocks)(new IntBuffer())
    Par.forEachBlock(n, blocks)((b, lo, hi) => fill(lo, hi, parts(b)))
    concat(parts)
  }

  /** The buffers `parts` concatenated in order, copied in parallel. Throws
    * if they hold more than an `Int` array can.
    */
  def concat(parts: Array[IntBuffer]): Array[Int] = {
    val blocks = parts.length
    val starts = new Array[Long](blocks + 1)
    var b = 0
    while (b < blocks) { starts(b + 1) = starts(b) + parts(b).size; b += 1 }
    require(starts(blocks) <= Int.MaxValue, s"${starts(blocks)} values in $blocks blocks exceed an Int array")
    val out = new Array[Int](starts(blocks).toInt)
    Par.forRange(0, blocks, grain = 1) { i =>
      System.arraycopy(parts(i).arr, 0, out, starts(i).toInt, parts(i).size)
    }
    out
  }
}

/** The C(s,r) r-subsets of a sorted s-clique, in lexicographic order of
  * positions, each copied into a reused buffer (so each comes out sorted).
  */
final class CliqueSubsets(s: Int, r: Int) {
  private val combos = Util.combinations(s, r)
  private val buf = new Array[Int](r)

  def size: Int = combos.length

  /** The j-th r-subset of `sClique`, valid until the next call. */
  def apply(sClique: Array[Int], j: Int): Array[Int] = {
    val combo = combos(j)
    var t = 0
    while (t < r) { buf(t) = sClique(combo(t)); t += 1 }
    buf
  }
}

/** Open-addressing Long → Int map (values ≥ 0), linear probing, no deletes.
  * Used for the intermediate levels of the multi-level clique table.
  */
final class LongIntOpenMap(expected: Int) {
  private val cap = Util.nextPow2(math.max(8, (expected / 0.6).toInt + 1))
  private val mask = cap - 1
  private val keys = new Array[Long](cap)
  private val vals = new Array[Int](cap)
  java.util.Arrays.fill(vals, -1)

  def capacity: Int = cap

  def put(key: Long, value: Int): Unit = {
    require(value >= 0, "values must be non-negative")
    var i = (repro.cliques.CliqueEncoding.hash(key) & mask).toInt
    while (vals(i) >= 0 && keys(i) != key) i = (i + 1) & mask
    keys(i) = key
    vals(i) = value
  }

  /** Returns -1 if absent. */
  def get(key: Long): Int = {
    var i = (repro.cliques.CliqueEncoding.hash(key) & mask).toInt
    while (vals(i) >= 0) {
      if (keys(i) == key) return vals(i)
      i = (i + 1) & mask
    }
    -1
  }
}

object Util {
  def nextPow2(x: Int): Int = {
    require(x >= 0, s"capacity $x is negative")
    require(x <= (1 << 30), s"capacity $x exceeds nextPow2's limit of 2^30")
    var p = 1
    while (p < x) p <<= 1
    p
  }

  /** Binomial coefficient for the small values used here (s ≤ 8). */
  def choose(n: Int, k: Int): Int = {
    if (k < 0 || k > n) return 0
    var acc = 1L
    var i = 0
    while (i < k) { acc = acc * (n - i) / (i + 1); i += 1 }
    acc.toInt
  }

  /** All k-subsets of {0..n-1} as index arrays, lexicographic. */
  def combinations(n: Int, k: Int): Array[Array[Int]] = {
    val out = Array.newBuilder[Array[Int]]
    val idx = new Array[Int](k)
    def rec(pos: Int, start: Int): Unit = {
      if (pos == k) { out += idx.clone(); return }
      var v = start
      while (v <= n - (k - pos)) {
        idx(pos) = v
        rec(pos + 1, v + 1)
        v += 1
      }
    }
    if (k >= 0 && k <= n) rec(0, 0)
    out.result()
  }

  /** In-place insertion sort of `a(0 until len)` — for tiny clique buffers. */
  def insertionSort(a: Array[Int], len: Int): Unit = {
    var i = 1
    while (i < len) {
      val x = a(i)
      var j = i - 1
      while (j >= 0 && a(j) > x) { a(j + 1) = a(j); j -= 1 }
      a(j + 1) = x
      i += 1
    }
  }
}
