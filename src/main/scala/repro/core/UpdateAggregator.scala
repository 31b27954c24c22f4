package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray, AtomicLongArray}
import repro.par.Par

/** Collects U — the set of r-clique slots whose s-clique count changed in
  * the current peeling round (paper §5.5). Implementations differ in how
  * they trade contention against clearing cost; all must dedupe so each
  * slot is reported once per round.
  *
  * `offer(slot)` is called from UPDATE worker threads (possibly many times
  * per slot); `drain()` returns the distinct slots and prepares the
  * structure for the next round.
  */
sealed trait UpdateAggregator {
  /** Starts a round. `expectedUpdates` is an upper bound on the number of
    * *distinct* slots that will be offered this round (the caller derives it
    * from the peeled cliques' s-clique counts); only the hash-table option
    * uses it, to size its per-round table.
    */
  def beginRound(expectedUpdates: Long): Unit
  def offer(slot: Int): Unit
  def drain(): Array[Int]
}

object UpdateAggregator {
  sealed trait Kind { def label: String }
  case object SimpleArrayKind extends Kind { val label = "simple-array" }
  case object ListBufferKind extends Kind { val label = "list-buffer" }
  case object HashTableKind extends Kind { val label = "hash-table" }

  def apply(kind: Kind, capacity: Int): UpdateAggregator = kind match {
    case SimpleArrayKind => new SimpleArrayAggregator(capacity)
    case ListBufferKind  => new ListBufferAggregator(capacity)
    case HashTableKind   => new HashTableAggregator(capacity)
  }
}

/** Round-stamped dedup shared by the array/list-buffer options: a CAS on the
  * per-slot round stamp decides which thread is "first to modify" the slot
  * this round (the paper uses the same first-modification test).
  */
private[core] final class RoundStamp(capacity: Int) {
  private val stamp = new AtomicIntegerArray(capacity)
  private var round = 0
  def nextRound(): Unit = round += 1
  /** True iff the caller is the first to claim `slot` this round. */
  def claim(slot: Int): Boolean = {
    val cur = stamp.get(slot)
    cur != round && stamp.compareAndSet(slot, cur, round)
  }
}

/** §5.5 "Simple Array": one shared array plus a single fetch-and-add slot
  * counter — maximal contention on the counter, but U is compact and needs
  * no clearing.
  */
final class SimpleArrayAggregator(capacity: Int) extends UpdateAggregator {
  private val stamps = new RoundStamp(capacity)
  private val u = new Array[Int](math.max(1, capacity))
  private val next = new AtomicInteger(0)

  def beginRound(expectedUpdates: Long): Unit = {
    stamps.nextRound()
    next.set(0)
  }

  def offer(slot: Int): Unit =
    if (stamps.claim(slot)) u(next.getAndIncrement()) = slot

  def drain(): Array[Int] = java.util.Arrays.copyOf(u, next.get())
}

/** §5.5 "List Buffer": each thread reserves fixed-size blocks of the shared
  * array with one fetch-and-add per block, then fills its block privately —
  * contention drops by the buffer size. Unused tail slots are filtered out
  * (and reset) at drain time, touching only the allocated region.
  *
  * The array holds every slot once plus less than one block per offering
  * thread, for at most [[ListBufferAggregator.MaxThreads]] threads: the
  * constructor rejects a larger [[Par]] pool or a capacity whose array
  * would not fit an Int index, and a round whose
  * blocks still overrun (more threads than that offered) fails with an
  * IllegalStateException naming the limit.
  */
final class ListBufferAggregator(capacity: Int) extends UpdateAggregator {
  import ListBufferAggregator.{BlockSize, MaxThreads}
  require(
    Par.parallelism <= MaxThreads,
    s"list-buffer aggregator supports at most $MaxThreads threads, the pool has ${Par.parallelism}"
  )
  require(
    capacity.toLong + MaxThreads.toLong * BlockSize <= Int.MaxValue,
    s"list-buffer aggregator capacity $capacity exceeds its limit ${Int.MaxValue - MaxThreads.toLong * BlockSize} = Int.MaxValue - ${MaxThreads}·$BlockSize"
  )
  private val stamps = new RoundStamp(capacity)
  // worst case: every slot updated once, each thread wasting < BlockSize
  private val u = new Array[Int](math.max(1, capacity + MaxThreads * BlockSize))
  java.util.Arrays.fill(u, -1)
  private val nextBlock = new AtomicInteger(0)
  private val epoch = new AtomicInteger(0)

  private final class ThreadState { var pos = 0; var end = 0; var seenEpoch = -1 }
  private val local = ThreadLocal.withInitial[ThreadState](() => new ThreadState)

  def beginRound(expectedUpdates: Long): Unit = {
    stamps.nextRound()
    nextBlock.set(0)
    epoch.incrementAndGet()
  }

  def offer(slot: Int): Unit = {
    if (!stamps.claim(slot)) return
    val st = local.get()
    val e = epoch.get()
    if (st.seenEpoch != e) { st.seenEpoch = e; st.pos = 0; st.end = 0 }
    if (st.pos == st.end) {
      st.pos = nextBlock.getAndAdd(BlockSize)
      if (st.pos >= u.length)
        throw new IllegalStateException(s"list-buffer aggregator overran its slack: more than $MaxThreads threads offered in one round")
      st.end = math.min(st.pos + BlockSize, u.length)
    }
    u(st.pos) = slot
    st.pos += 1
  }

  /** Scans the allocated region in parallel blocks of at least
    * [[Par.BlockGrain]] cells, resetting each cell it reads; the slots come
    * out in cell order, as a sequential scan would give them.
    */
  def drain(): Array[Int] =
    IntBuffer.collectBlocks(math.min(u.length, nextBlock.get())) { (lo, hi, part) =>
      var i = lo
      while (i < hi) {
        val v = u(i)
        if (v >= 0) { part += v; u(i) = -1 }
        i += 1
      }
    }
}

object ListBufferAggregator {
  /** Offering threads the shared array leaves slack for. */
  val MaxThreads = 256
  /** Cells a thread reserves with one fetch-and-add. */
  val BlockSize = 512
}

/** §5.5 "Hash Table": a parallel open-addressing set whose probe region is
  * sized per round from the peeled cliques' counts — insertion itself
  * dedupes (no shared slot counter to contend on). The paper's version
  * reserves less space in small rounds so there is less to clear; we get
  * the same effect with zero clearing: one array of round-stamped entries
  * ((round << 32) | slot), where a cell not stamped with the current round
  * is empty by definition. The array grows in [[beginRound]] when a round's
  * region needs more cells than it has, up to 2 · capacity rounded up to a
  * power of two; a new array is all round 0, so empty. `expectedUpdates` is
  * a true upper bound on distinct offers, so the chosen probe region can
  * never overflow.
  */
final class HashTableAggregator(capacity: Int) extends UpdateAggregator {
  require(
    capacity <= HashTableAggregator.MaxCapacity,
    s"hash-table aggregator supports at most 2^29 = ${HashTableAggregator.MaxCapacity} slots, got capacity $capacity"
  )
  private val maxCap = Util.nextPow2(math.max(64, 2 * capacity))
  private var table = new AtomicLongArray(64)
  private var mask = 63
  private var round = 0L

  def beginRound(expectedUpdates: Long): Unit = {
    round += 1
    val bound = math.min(expectedUpdates, capacity.toLong)
    val want = Util.nextPow2(math.max(64L, bound * 2L).min(maxCap.toLong).toInt)
    if (want > table.length) table = new AtomicLongArray(want)
    mask = want - 1
  }

  /** Cells of the probe array allocated so far. */
  private[core] def cells: Int = table.length

  def offer(slot: Int): Unit = {
    val m = mask
    val tag = (round << 32) | slot.toLong
    var i = (repro.cliques.CliqueEncoding.hash(slot.toLong) & m).toInt
    while (true) {
      val cur = table.get(i)
      if (cur == tag) return
      if ((cur >>> 32) != round) {
        // stale entry from an earlier round == empty cell
        if (table.compareAndSet(i, cur, tag)) return
        // CAS lost: re-read the same cell (it may now hold `tag`)
      } else i = (i + 1) & m
    }
  }

  /** Scans the probe region in parallel blocks of at least
    * [[Par.BlockGrain]] cells; the slots come out in cell order, as a
    * sequential scan would give them.
    */
  def drain(): Array[Int] =
    IntBuffer.collectBlocks(mask + 1) { (lo, hi, part) =>
      var i = lo
      while (i < hi) {
        val v = table.get(i)
        if ((v >>> 32) == round) part += (v & 0xFFFFFFFFL).toInt
        i += 1
      }
    }
}

object HashTableAggregator {
  /** Largest capacity: the probe array holds 2 · capacity cells, and
    * [[Util.nextPow2]] stops at 2^30.
    */
  val MaxCapacity: Int = 1 << 29
}
