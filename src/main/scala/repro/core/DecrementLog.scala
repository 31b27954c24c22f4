package repro.core

import repro.par.Par

/** UPDATE's count decrements on the s-clique rows, applied with no atomic
  * operation (DESIGN.md substitution 12; Julienne's `updateBuckets` sums a
  * round's count changes the same way, by histogram rather than by
  * per-update atomics).
  *
  * Each UPDATE block b appends the slot of every decrement it makes to its
  * own [[part]] `b`. [[apply]] then concatenates the parts in block order,
  * scatters the log stably by coarse slot range (`slot >>> RangeBits`),
  * and hands each range to one task. That task alone writes the range's
  * slots: it subtracts their decrements from T's counts with plain writes
  * and emits each decremented slot once into U, deduplicated by a plain
  * per-slot round stamp. U lists the ranges in order and, within a range,
  * the slots in log order of their first decrement. Both depend only on the
  * concatenated log, so not on the thread count when block b holds the
  * decrements of a contiguous run of the round's peeled ids, in order.
  */
final class DecrementLog(table: CliqueTable, blocks: Int) {
  import DecrementLog.RangeBits

  private val capacity = math.max(1, table.capacity)
  private val ranges = ((capacity + (1L << RangeBits) - 1) >>> RangeBits).toInt
  /** The last round in which each slot was emitted into U. */
  private val stamp = new Array[Int](capacity)
  private var round = 0
  private val parts = Array.fill(blocks)(new IntBuffer())

  /** The log of UPDATE block `b`, in 0 until `blocks`. */
  def part(b: Int): IntBuffer = parts(b)

  /** Applies and clears the round's decrements, one per logged slot, and
    * returns U: every logged slot once, ranges in order, log order within a
    * range.
    */
  def apply(): Array[Int] = {
    val log = IntBuffer.concat(parts)
    parts.foreach(_.clear())
    val n = log.length
    if (n == 0) return log
    round += 1
    val rnd = round

    // the log by range, each range's slots in log order
    val byRange = new Array[Int](n)
    val starts = new Array[Int](ranges + 1)
    var next = 0
    Par.scatter(n, ranges) { (lo, hi, hist) =>
      var i = lo
      while (i < hi) { hist(log(i) >>> RangeBits) += 1; i += 1 }
    } { (d, size) =>
      starts(d) = next
      next += size
      starts(d)
    } { (lo, hi, pos) =>
      var i = lo
      while (i < hi) {
        val slot = log(i)
        val d = slot >>> RangeBits
        byRange(pos(d)) = slot
        pos(d) += 1
        i += 1
      }
    }
    starts(ranges) = n

    // each task owns a run of whole ranges: it subtracts and keeps each
    // slot's first occurrence, compacted to the front of the run in place
    val tasks = Par.blocksFor(n)
    val kept = new Array[Int](tasks)
    val runStart = new Array[Int](tasks)
    Par.forEachBlock(ranges, tasks) { (t, dLo, dHi) =>
      val from = starts(dLo)
      var w = from
      var i = from
      val end = starts(dHi)
      while (i < end) {
        val slot = byRange(i)
        table.decrementOwned(slot)
        if (stamp(slot) != rnd) { stamp(slot) = rnd; byRange(w) = slot; w += 1 }
        i += 1
      }
      runStart(t) = from
      kept(t) = w - from
    }

    val at = new Array[Int](tasks + 1)
    var t = 0
    while (t < tasks) { at(t + 1) = at(t) + kept(t); t += 1 }
    val u = new Array[Int](at(tasks))
    Par.forRange(0, tasks, grain = 1)(t => System.arraycopy(byRange, runStart(t), u, at(t), kept(t)))
    u
  }
}

object DecrementLog {

  /** Slots per coarse range of [[DecrementLog.apply]], as a power of two. */
  final val RangeBits = 12
}
