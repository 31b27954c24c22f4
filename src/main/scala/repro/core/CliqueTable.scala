package repro.core

import java.util.concurrent.atomic.AtomicLongArray
import repro.cliques.CliqueEncoding
import repro.cliques.CliqueEncoding.EmptyBit
import repro.par.Par

/** How the parallel hash table T stores r-cliques (paper §5.1). */
sealed trait TableScheme {
  /** Number of prefix vertices consumed before the last-level key. */
  def prefixLen(r: Int): Int
  def label: String
}
/** A single hash table keyed by whole r-cliques. */
case object OneLevel extends TableScheme {
  def prefixLen(r: Int): Int = 0
  def label = "1-level"
}
/** An array of size n indexed by the first vertex, each element pointing to
  * a hash table keyed by the remaining (r−1)-clique.
  */
case object TwoLevelArray extends TableScheme {
  def prefixLen(r: Int): Int = 1
  def label = "2-level"
}
/** ℓ nested hash tables: ℓ−1 intermediate levels each keyed by one vertex,
  * the last level keyed by (r−ℓ+1)-cliques. ℓ may be 2 (§5.1 distinguishes
  * this from [[TwoLevelArray]]).
  */
final case class MultiLevel(levels: Int) extends TableScheme {
  require(levels >= 2, "multi-level tables need at least 2 levels")
  def prefixLen(r: Int): Int = levels - 1
  def label = s"$levels-multi-level"
}

/** Inverse index map: slot → constituent vertices (paper §5.3). */
sealed trait InverseMapMethod { def label: String }
/** Binary search over the prefix sums of last-level table sizes. */
case object BinarySearch extends InverseMapMethod { def label = "binary-search" }
/** Barrier cells after each last-level table hold up-pointers; empty cells
  * repeat them; a rightward linear scan from any slot finds the parent.
  * Requires contiguous storage.
  */
case object StoredPointers extends InverseMapMethod { def label = "stored-pointers" }

/** Memory accounting in paper units (§5.1 figures: one word per stored
  * vertex or pointer). `structureWords` is what the space-savings tables
  * compare; `countWords` (the s-clique counters) is identical in role across
  * schemes but scales with allocated capacity.
  */
final case class TableMemory(keyWords: Long, pointerWords: Long, countWords: Long) {
  def structureWords: Long = keyWords + pointerWords
  def totalWords: Long = structureWords + countWords
}

/** The parallel hash table T of ARB-NUCLEUS-DECOMP: maps every r-clique to a
  * mutable s-clique count and exposes the slot-index interface the bucketing
  * structure needs (§5.3): a unique integer per r-clique (its position in
  * the concatenated last-level tables) plus forward (`slotOf`) and inverse
  * (`cliqueOf`) maps.
  *
  * Built once from the lexicographically sorted list of all r-cliques.
  * Probing is linear with power-of-two group capacities. Empty cells carry
  * bit 63; in stored-pointer mode their low bits (and a barrier cell after
  * each group) hold the parent pointer, which equals the group id.
  */
final class CliqueTable private (
    val r: Int,
    val n: Int,
    val enc: CliqueEncoding,
    val scheme: TableScheme,
    val contiguous: Boolean,
    val inverse: InverseMapMethod,
    val numCliques: Int,
    prefixLen: Int,
    keyArity: Int,
    numGroups: Int,
    groupOffsets: Array[Int],
    groupCaps: Array[Int],
    keysContig: Array[Long],
    keysByGroup: Array[Array[Long]],
    counts: AtomicLongArray,
    levelVertex: Array[Array[Int]],
    levelParent: Array[Array[Int]],
    levelLookup: Array[LongIntOpenMap]
) extends Serializable {

  /** Global slot-index space size (includes empty and barrier cells). */
  val capacity: Int = groupOffsets(numGroups)

  private val hasBarriers: Boolean = inverse == StoredPointers

  @inline private def keyAt(group: Int, slot: Int): Long =
    if (contiguous) keysContig(slot) else keysByGroup(group)(slot - groupOffsets(group))

  /** Binary search: largest g with groupOffsets(g) <= slot. */
  @inline private def groupOfSlot(slot: Int): Int = {
    var lo = 0
    var hi = numGroups - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (groupOffsets(mid) <= slot) lo = mid else hi = mid - 1
    }
    lo
  }

  /** Slot of the r-clique `vs(from until from+r)` (vertices sorted
    * ascending), or -1 if it is not in the table.
    */
  def slotOf(vs: Array[Int], from: Int = 0): Int = {
    if (numCliques == 0) return -1
    val g = scheme match {
      case OneLevel      => 0
      case TwoLevelArray => vs(from)
      case MultiLevel(_) =>
        var e = levelLookup(0).get(vs(from).toLong)
        var j = 1
        while (e >= 0 && j < prefixLen) {
          e = levelLookup(j).get(e.toLong * n + vs(from + j))
          j += 1
        }
        if (e < 0) return -1
        e
    }
    val cap = groupCaps(g)
    if (cap == 0) return -1
    val key = enc.pack(vs, from + prefixLen, keyArity)
    val mask = cap - 1
    var i = (CliqueEncoding.hash(key) & mask).toInt
    val base = groupOffsets(g)
    var probes = 0
    while (probes < cap) {
      val cell = keyAt(g, base + i)
      if ((cell & EmptyBit) != 0L) return -1
      if (cell == key) return base + i
      i = (i + 1) & mask
      probes += 1
    }
    -1
  }

  /** Recovers the r vertices of the clique at occupied `slot` into
    * `out(0 until r)`, sorted ascending.
    */
  def cliqueOf(slot: Int, out: Array[Int]): Unit = {
    val g = inverse match {
      case StoredPointers =>
        // rightward scan to the first empty/barrier cell; its payload is the
        // group id (== parent pointer). Bounded by the group's barrier.
        var i = slot
        while ((keysContig(i) & EmptyBit) == 0L) i += 1
        (keysContig(i) & ~EmptyBit).toInt
      case BinarySearch => groupOfSlot(slot)
    }
    if (keyArity > 0) enc.unpack(keyAt(g, slot), keyArity, out, prefixLen)
    scheme match {
      case OneLevel      => ()
      case TwoLevelArray => out(0) = g
      case MultiLevel(_) =>
        var e = g
        var j = prefixLen - 1
        while (j >= 0) {
          out(j) = levelVertex(j)(e)
          e = levelParent(j)(e)
          j -= 1
        }
    }
  }

  def count(slot: Int): Long = counts.get(slot)
  def addCount(slot: Int, delta: Long): Long = counts.addAndGet(slot, delta)

  def foreachOccupied(f: Int => Unit): Unit = {
    var g = 0
    while (g < numGroups) {
      val base = groupOffsets(g)
      val cap = groupCaps(g)
      var i = 0
      while (i < cap) {
        if ((keyAt(g, base + i) & EmptyBit) == 0L) f(base + i)
        i += 1
      }
      g += 1
    }
  }

  /** Paper-unit memory accounting (see [[TableMemory]]). */
  def memory: TableMemory = {
    var keyWords = 0L
    var barrier = 0L
    var g = 0
    while (g < numGroups) {
      keyWords += groupCaps(g).toLong * math.max(1, keyArity)
      if (hasBarriers && groupCaps(g) > 0) barrier += 1
      g += 1
    }
    var pointerWords = barrier + (numGroups + 1).toLong // offsets / top array
    if (levelLookup != null) {
      var j = 0
      while (j < levelLookup.length) {
        pointerWords += levelLookup(j).capacity.toLong * 2
        pointerWords += levelVertex(j).length.toLong * 2
        j += 1
      }
    }
    TableMemory(keyWords, pointerWords, capacity.toLong)
  }
}

object CliqueTable {

  /** True iff `scheme` can represent r-cliques over n vertices with 64-bit
    * last-level keys (the analogue of the paper's "one-level T is
    * infeasible for large r").
    */
  def feasible(scheme: TableScheme, r: Int, n: Int): Boolean = {
    val p = scheme.prefixLen(r)
    val arity = r - p
    if (arity < 0) return false
    scheme match {
      case MultiLevel(l) if l > r => false
      case _ => arity == 0 || new CliqueEncoding(n).fits(arity)
    }
  }

  /** Each group's power-of-two slot capacity (load factor ≤ 0.7) and the
    * groups' slot offsets, with one barrier cell after each non-empty group
    * when `hasBarriers`. Computed in Long; fails fast past 2^30 slots in a
    * group or `Int.MaxValue` in total.
    */
  private[core] def slotLayout(groupCounts: Array[Int], hasBarriers: Boolean): (Array[Int], Array[Int]) = {
    val caps = new Array[Int](groupCounts.length)
    val offsets = new Array[Int](groupCounts.length + 1)
    var total = 0L
    for (g <- groupCounts.indices) {
      val cnt = groupCounts(g)
      val need = (cnt * 10L + 6) / 7
      require(need <= (1 << 30), s"group $g holds $cnt r-cliques: $need slots exceed the group limit of 2^30")
      caps(g) = if (cnt == 0) 0 else Util.nextPow2(need.toInt)
      total += caps(g) + (if (hasBarriers && cnt > 0) 1 else 0)
      require(total <= Int.MaxValue, s"${g + 1} groups need $total slots, over the Int slot limit of ${Int.MaxValue}")
      offsets(g + 1) = total.toInt
    }
    (caps, offsets)
  }

  /** Builds T from the lexicographically sorted, duplicate-free flattened
    * r-clique list `cliques` (length `num * r`, vertices of each clique
    * sorted ascending).
    */
  def build(
      cliques: Array[Int],
      num: Int,
      r: Int,
      n: Int,
      scheme: TableScheme = TwoLevelArray,
      contiguous: Boolean = true,
      inverse: InverseMapMethod = StoredPointers
  ): CliqueTable = {
    require(r >= 1, "r must be >= 1")
    require(inverse != StoredPointers || contiguous,
      "stored pointers require contiguous storage (§5.3)")
    val effContig = scheme match {
      case OneLevel => true // a single table is contiguous by nature (§5.2)
      case _        => contiguous
    }
    require(feasible(scheme, r, n),
      s"${scheme.label} cannot key ${r - scheme.prefixLen(r)} vertices over n=$n in 64 bits")
    val enc = new CliqueEncoding(n)
    val p = scheme.prefixLen(r)
    val keyArity = r - p

    // --- group structure ---------------------------------------------------
    var numGroups = 0
    var groupCounts: Array[Int] = null
    var groupCliqueStart: Array[Int] = null // first clique index per group
    var levelVertex: Array[Array[Int]] = null
    var levelParent: Array[Array[Int]] = null
    var levelLookup: Array[LongIntOpenMap] = null

    scheme match {
      case OneLevel =>
        numGroups = 1
        groupCounts = Array(num)
        groupCliqueStart = Array(0, num)
      case TwoLevelArray =>
        numGroups = math.max(1, n)
        groupCounts = new Array[Int](numGroups)
        var i = 0
        while (i < num) { groupCounts(cliques(i * r)) += 1; i += 1 }
        groupCliqueStart = new Array[Int](numGroups + 1)
        var acc = 0
        var g = 0
        while (g < numGroups) { groupCliqueStart(g) = acc; acc += groupCounts(g); g += 1 }
        groupCliqueStart(numGroups) = acc
      case MultiLevel(_) =>
        val vBufs = Array.fill(p)(new IntBuffer())
        val pBufs = Array.fill(p)(new IntBuffer())
        val gCounts = new IntBuffer()
        val curEntry = new Array[Int](p)
        var i = 0
        while (i < num) {
          var firstDiff = 0
          if (i > 0) {
            firstDiff = p
            var j = 0
            var done = false
            while (!done && j < p) {
              if (cliques(i * r + j) != cliques((i - 1) * r + j)) { firstDiff = j; done = true }
              j += 1
            }
          }
          if (firstDiff < p) {
            var j = firstDiff
            while (j < p) {
              vBufs(j) += cliques(i * r + j)
              pBufs(j) += (if (j == 0) -1 else curEntry(j - 1))
              curEntry(j) = vBufs(j).size - 1
              j += 1
            }
            gCounts += 1
          } else {
            gCounts.unsafeArray(gCounts.size - 1) += 1
          }
          i += 1
        }
        numGroups = math.max(1, gCounts.size)
        groupCounts = if (gCounts.isEmpty) Array(0) else gCounts.toArray
        groupCliqueStart = new Array[Int](numGroups + 1)
        var acc = 0
        var g = 0
        while (g < numGroups) {
          groupCliqueStart(g) = acc
          acc += groupCounts(g)
          g += 1
        }
        groupCliqueStart(numGroups) = acc
        levelVertex = vBufs.map(_.toArray)
        levelParent = pBufs.map(_.toArray)
        levelLookup = Array.tabulate(p) { j =>
          val mp = new LongIntOpenMap(levelVertex(j).length)
          var e = 0
          while (e < levelVertex(j).length) {
            val key =
              if (j == 0) levelVertex(0)(e).toLong
              else levelParent(j)(e).toLong * n + levelVertex(j)(e)
            mp.put(key, e)
            e += 1
          }
          mp
        }
    }

    // --- last-level layout ---------------------------------------------------
    val hasBarriers = inverse == StoredPointers
    val (groupCaps, groupOffsets) = slotLayout(groupCounts, hasBarriers)
    val total = groupOffsets(numGroups)

    val keysContig: Array[Long] = if (effContig) new Array[Long](total) else null
    val keysByGroup: Array[Array[Long]] = if (effContig) null else new Array[Array[Long]](numGroups)

    @inline def parentPayload(grp: Int): Long = grp.toLong

    // initialize empty cells (and barriers) then insert, group-parallel
    Par.forBlocked(0, numGroups, grain = 64) { (glo, ghi) =>
      var gg = glo
      while (gg < ghi) {
        val cap = groupCaps(gg)
        if (cap > 0) {
          val base = groupOffsets(gg)
          val emptyCell = EmptyBit | (if (hasBarriers) parentPayload(gg) else 0L)
          if (effContig) {
            var i = 0
            while (i < cap) { keysContig(base + i) = emptyCell; i += 1 }
            if (hasBarriers) keysContig(base + cap) = EmptyBit | parentPayload(gg)
          } else {
            val arr = new Array[Long](cap)
            java.util.Arrays.fill(arr, emptyCell)
            keysByGroup(gg) = arr
          }
          val mask = cap - 1
          var c = groupCliqueStart(gg)
          val cHi = groupCliqueStart(gg + 1)
          while (c < cHi) {
            val key = enc.pack(cliques, c * r + p, keyArity)
            var i = (CliqueEncoding.hash(key) & mask).toInt
            if (effContig) {
              while ((keysContig(base + i) & EmptyBit) == 0L) i = (i + 1) & mask
              keysContig(base + i) = key
            } else {
              val arr = keysByGroup(gg)
              while ((arr(i) & EmptyBit) == 0L) i = (i + 1) & mask
              arr(i) = key
            }
            c += 1
          }
        }
        gg += 1
      }
    }

    new CliqueTable(
      r, n, enc, scheme, effContig, inverse, num,
      p, keyArity, numGroups, groupOffsets, groupCaps,
      keysContig, keysByGroup, new AtomicLongArray(total),
      levelVertex, levelParent, levelLookup
    )
  }
}
