package repro.core

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
  * Lazy deletion: an id may sit in several stale bucket lists; entries are
  * validated against the authoritative `bucketOf` at extraction time.
  */
final class Bucketing(val capacity: Int, window: Int = 128) {

  /** Current bucket per id; -1 = peeled or never inserted. */
  private val bucketOf = new Array[Long](capacity)
  java.util.Arrays.fill(bucketOf, -1L)

  private val lists = Array.fill(window)(new IntBuffer())
  private val overflow = new IntBuffer()
  private var lo = 0L        // bucket value of lists(0)
  private var cursor = 0     // next list index to inspect
  private var live = 0       // ids inserted and not yet extracted

  /** Inserts `id` with its initial bucket value (≥ 0). Call once per id. */
  def insert(id: Int, value: Long): Unit = {
    require(value >= 0, s"bucket value must be >= 0, got $value")
    require(bucketOf(id) == -1L, s"id $id already present")
    bucketOf(id) = value
    place(id, value)
    live += 1
  }

  /** Moves `id` to bucket `max(value, current frontier)` if that is lower
    * than its current bucket. Peeled ids are ignored (the UPDATE subroutine
    * may report cliques that were extracted in this same round).
    */
  def update(id: Int, value: Long): Unit = {
    val cur = bucketOf(id)
    if (cur == -1L) return
    val clamped = math.max(value, frontier)
    if (clamped < cur) {
      bucketOf(id) = clamped
      place(id, clamped)
    }
  }

  /** The minimum bucket value that can still be extracted. */
  def frontier: Long = lo + cursor

  private def place(id: Int, value: Long): Unit = {
    val rel = value - lo
    if (rel < window) lists(rel.toInt) += id else overflow += id
  }

  /** Extracts the minimum non-empty bucket: returns (bucketValue, ids) or
    * null when the structure is empty. Extracted ids are marked peeled.
    */
  def nextBucket(): (Long, Array[Int]) = {
    while (live > 0) {
      while (cursor < window) {
        val l = lists(cursor)
        if (!l.isEmpty) {
          val value = lo + cursor
          val out = new IntBuffer(l.size)
          l.foreach { id => if (bucketOf(id) == value) { out += id; bucketOf(id) = -1L } }
          l.clear()
          if (!out.isEmpty) {
            live -= out.size
            return (value, out.toArray)
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
    var newLo = Long.MaxValue
    overflow.foreach { id =>
      val b = bucketOf(id)
      if (b >= 0 && b < newLo) newLo = b
    }
    if (newLo == Long.MaxValue) {
      // only stale entries remained
      overflow.clear()
      if (live > 0)
        throw new IllegalStateException(s"bucketing invariant violated: $live live ids unreachable")
      return
    }
    val old = overflow.toArray
    overflow.clear()
    lo = newLo
    cursor = 0
    var i = 0
    val seen = new java.util.BitSet(capacity)
    while (i < old.length) {
      val id = old(i)
      val b = bucketOf(id)
      if (b >= 0 && !seen.get(id)) {
        seen.set(id)
        place(id, b)
      }
      i += 1
    }
  }
}
