package repro.core

import java.util.concurrent.atomic.LongAdder
import repro.par.Par

/** Julienne-style bucketing structure (Dhulipala et al. [20], paper §3/§5.3).
  *
  * Maintains a map id → bucket value (the current s-clique count, clamped at
  * the peel frontier) and supports extracting all ids in the minimum
  * non-empty bucket. Only a constant window of the lowest buckets is
  * materialized; ids whose bucket falls beyond the window go to an overflow
  * list, and when the window is exhausted the structure skips directly to
  * the minimum remaining bucket (the "skip over large ranges of empty
  * buckets" behaviour the paper credits for fast retrieval).
  *
  * Lazy deletion: an id may leave stale entries in the lists of buckets it
  * moved down from; entries are validated against the authoritative
  * `bucketOf` at extraction time. A live id beyond the window has exactly
  * one overflow entry, and a move that stays beyond the window adds none, so
  * no list ever holds an id twice.
  *
  * Ids are inserted and moved in batches (Julienne's `updateBuckets`): a
  * stable parallel counting scatter ([[Par.scatter]]) computes each id's
  * bucket in its count pass and places the ids on their destination lists,
  * so every list keeps the order a sequential loop would give it. Extraction
  * packs the current list in parallel. Batches of at most [[Par.BlockGrain]]
  * ids run on the calling thread.
  */
final class Bucketing(val capacity: Int, window: Int = 128) {

  /** Current bucket per id; -1 = peeled or never inserted. */
  private val bucketOf = new Array[Long](capacity)
  Par.forBlocked(0, capacity)((lo, hi) => java.util.Arrays.fill(bucketOf, lo, hi, -1L))

  /** `lists(j)` holds bucket `lo + j` for j < window; `lists(window)` is the overflow list. */
  private val lists = Array.fill(window + 1)(new IntBuffer())
  private var lo = 0L        // bucket value of lists(0)
  private var cursor = 0     // next list index to inspect
  private var live = 0       // ids inserted and not yet extracted

  /** Inserts `id` with its initial bucket value (≥ 0). Call once per id. */
  def insert(id: Int, value: Long): Unit = {
    lists(insertDest(id, value)) += id
    live += 1
  }

  /** [[insert]] for each of the distinct `ids`, with value `value(id)`. */
  def insertAll(ids: Array[Int])(value: Int => Long): Unit = {
    place(ids, ids.length)(id => insertDest(id, value(id)))
    live += ids.length
  }

  /** Moves each of the distinct `ids` to bucket `max(value(id), current
    * frontier)` if that is lower than its current bucket. Peeled ids are
    * ignored (the UPDATE subroutine may report cliques that were extracted
    * in this same round).
    */
  def updateAll(ids: Array[Int])(value: Int => Long): Unit = {
    val f = frontier
    place(ids, ids.length)(id => updateDest(id, value(id), f))
  }

  /** Records `id`'s first bucket and returns its list. */
  private def insertDest(id: Int, value: Long): Int = {
    require(value >= 0, s"bucket value must be >= 0, got $value")
    require(bucketOf(id) == -1L, s"id $id already present")
    bucketOf(id) = value
    listOf(value)
  }

  /** Moves `id` down to `max(value, f)` if that is lower, and returns the
    * list it joins, or -1 for none.
    */
  private def updateDest(id: Int, value: Long, f: Long): Int = {
    val cur = bucketOf(id)
    if (cur == -1L) return -1
    val clamped = math.max(value, f)
    if (clamped >= cur) return -1
    bucketOf(id) = clamped
    // beyond the window, cur is too: the id already has its overflow entry
    if (clamped - lo < window) (clamped - lo).toInt else -1
  }

  /** The minimum bucket value that can still be extracted. */
  def frontier: Long = lo + cursor

  private def listOf(value: Long): Int = {
    val rel = value - lo
    if (rel < window) rel.toInt else window
  }

  /** Appends each of `ids(0 until n)` to the list `dest(id)` returns
    * (-1 = none), calling `dest` once per id, keeping `ids`' order within
    * each list ([[Par.scatter]]). `dest` may run in parallel; the ids are
    * distinct.
    */
  private def place(ids: Array[Int], n: Int)(dest: Int => Int): Unit = {
    val destOf = new Array[Int](n)
    Par.scatter(n, window + 1) { (lo, hi, hist) =>
      var i = lo
      while (i < hi) {
        val d = dest(ids(i))
        destOf(i) = d
        if (d >= 0) hist(d) += 1
        i += 1
      }
    }((d, size) => lists(d).extend(size)) { (lo, hi, pos) =>
      val arrs = lists.map(_.unsafeArray)
      var i = lo
      while (i < hi) {
        val d = destOf(i)
        if (d >= 0) { arrs(d)(pos(d)) = ids(i); pos(d) += 1 }
        i += 1
      }
    }
  }

  /** Extracts the minimum non-empty bucket: returns (bucketValue, ids) or
    * null when the structure is empty. Extracted ids are marked peeled.
    */
  def nextBucket(): (Long, Array[Int]) = {
    val b = nextBucket(0, null, null)
    if (b == null) null else (b.value, b.ids)
  }

  /** [[nextBucket]] that also marks the extracted ids in the same parallel
    * pack, as Julienne's extract does: it sets `peeledRound(id) = round` for
    * each of them (unless `peeledRound` is null) and, if `count` is not
    * null, returns the sum of `count(id)` over them. Returns null when the
    * structure is empty.
    */
  def nextBucket(round: Int, peeledRound: Array[Int], count: Int => Long): Bucketing.Extracted = {
    while (live > 0) {
      while (cursor < window) {
        val l = lists(cursor)
        if (!l.isEmpty) {
          val value = lo + cursor
          val arr = l.unsafeArray
          val countSum = new LongAdder
          val out = IntBuffer.collectBlocks(l.size) { (blo, bhi, part) =>
            var sum = 0L
            var i = blo
            while (i < bhi) {
              val id = arr(i)
              if (bucketOf(id) == value) {
                part += id
                bucketOf(id) = -1L
                if (peeledRound != null) peeledRound(id) = round
                if (count != null) sum += count(id)
              }
              i += 1
            }
            if (sum != 0L) countSum.add(sum)
          }
          l.clear()
          if (out.length > 0) {
            live -= out.length
            return Bucketing.Extracted(value, out, countSum.sum())
          }
        } else cursor += 1
        // a non-empty list that yielded nothing (all stale) loops again and
        // is now empty, advancing the cursor
      }
      rematerialize()
    }
    null
  }

  /** Window exhausted: find the minimum bucket among overflow ids and
    * re-materialize the window starting there (skipping empty ranges).
    */
  private def rematerialize(): Unit = {
    val old = lists(window)
    val arr = old.unsafeArray
    val n = old.size
    val blocks = Par.blocksFor(n)
    val mins = new Array[Long](blocks)
    Par.forEachBlock(n, blocks) { (b, blo, bhi) =>
      var m = Long.MaxValue
      var i = blo
      while (i < bhi) {
        val v = bucketOf(arr(i))
        if (v >= 0 && v < m) m = v
        i += 1
      }
      mins(b) = m
    }
    val newLo = mins.min
    lists(window) = new IntBuffer()
    if (newLo == Long.MaxValue) {
      // only stale entries remained
      if (live > 0)
        throw new IllegalStateException(s"bucketing invariant violated: $live live ids unreachable")
      return
    }
    lo = newLo
    cursor = 0
    place(arr, n) { id =>
      val v = bucketOf(id)
      if (v < 0) -1 else listOf(v)
    }
  }
}

object Bucketing {

  /** One extracted bucket: its value, its ids in list order and, when
    * asked for, the sum of their counts.
    */
  final case class Extracted(value: Long, ids: Array[Int], countSum: Long)
}
