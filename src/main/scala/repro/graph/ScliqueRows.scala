package repro.graph

import repro.par.Par

/** UPDATE's input at every s = r + 1 on a rank-relabeled graph (DESIGN.md
  * substitution 11): one row per slot of the clique table T. Row `slot`
  * holds one entry per s-clique through that r-clique: the slots of the
  * s-clique's other r r-subsets, stored as r consecutive `Int`s.
  * Entry i, for i in `offsets(slot) until offsets(slot + 1)`, is
  * `entries(r · i until r · i + r)`.
  *
  * At s = r + 1 an s-clique through a peeled r-clique is the only thing it
  * can lose, so UPDATE reads the row of each peeled r-clique and settles
  * each entry in place, with no adjacency scan, no decoding of the slot and
  * no table probe (the paper's Algorithm 2 intersects the members' lists
  * instead, and §5.6's graph contraction exists to shorten those lists). At
  * (2,3) this is Kabir–Madduri's PKT reading per-edge support. A row's length
  * is the r-clique's s-clique count, so the rows also give T's initial
  * counts.
  */
final class ScliqueRows private (val offsets: Array[Int], val entries: Array[Int]) {

  /** Words held: one per offset and one per slot of an entry (paper units,
    * as [[repro.core.TableMemory]]).
    */
  def words: Long = offsets.length.toLong + entries.length

  /** The number of s-cliques through the r-clique at `slot`. */
  def length(slot: Int): Int = offsets(slot + 1) - offsets(slot)
}

object ScliqueRows {

  /** The most entries an `Int`-indexed array holds (the JDK's soft limit). */
  final val MaxEntries: Int = Int.MaxValue - 8

  /** Throws unless the rows of `numScliques` s-cliques, s = r + 1, fit an
    * `Int`-indexed array: each s-clique has s entries of r slots.
    */
  def requireFits(numScliques: Long, r: Int): Unit = {
    val slots = r.toLong * (r + 1) * numScliques
    require(
      slots <= MaxEntries,
      s"$numScliques ${r + 1}-cliques need $slots slots in their rows, over the limit of $MaxEntries " +
        "entries of an Int-indexed array"
    )
  }

  /** Builds the rows of the `num` s-cliques, s = r + 1:
    * `subsetSlots(s · c until s · c + s)` holds the slots in T of s-clique
    * c's r-subsets; T's slot space is `capacity` wide. Throws, before
    * allocating anything, if the rows would not fit ([[requireFits]]).
    *
    * [[placeByKey]] places each s-clique's s entries by slot, stably, so the
    * rows do not depend on the thread count.
    */
  def build(subsetSlots: Array[Int], num: Int, r: Int, capacity: Int): ScliqueRows = {
    requireFits(num.toLong, r)
    val s = r + 1
    val total = s * num
    require(subsetSlots.length >= total, s"$num $s-cliques need $total subset slots, got ${subsetSlots.length}")
    val offsets = new Array[Int](capacity + 1)
    val entries = new Array[Int](r * total)
    // item t is subset t % s of s-clique t / s; its entry holds the others
    placeByKey(subsetSlots, total, capacity, offsets) { (t, at) =>
      val first = t - t % s
      var out = r * at
      var i = first
      while (i < first + s) {
        if (i != t) { entries(out) = subsetSlots(i); out += 1 }
        i += 1
      }
    }
    new ScliqueRows(offsets, entries)
  }

  /** Keys per coarse bucket of [[placeByKey]], as a power of two. */
  private final val CoarseBits = 10

  /** A stable counting sort of the items 0 until `n` by key `keys(t)`, in
    * 0 until `numKeys`: writes the first position of each key's items to
    * `offsets(key)` and `n` to `offsets(numKeys)`, and calls
    * `place(t, at)` once per item with its position, the items of one key
    * at consecutive positions in item order. It runs in two levels, so that
    * neither needs a histogram per block over all keys:
    *   - a [[Par.scatter]] of the items by coarse bucket, `key >>> 10`,
    *     into a scratch array;
    *   - inside each coarse bucket, in parallel over the buckets, a counting
    *     sort by key that also yields the bucket's offsets.
    */
  private[graph] def placeByKey(keys: Array[Int], n: Int, numKeys: Int, offsets: Array[Int])(
      place: (Int, Int) => Unit
  ): Unit = {
    val width = 1 << CoarseBits
    val coarse = ((numKeys + width - 1L) >>> CoarseBits).toInt
    val starts = new Array[Int](coarse + 1)
    val byCoarse = new Array[Int](n)
    var next = 0
    Par.scatter(n, coarse) { (lo, hi, hist) =>
      var t = lo
      while (t < hi) { hist(keys(t) >>> CoarseBits) += 1; t += 1 }
    } { (d, size) =>
      starts(d) = next
      next += size
      starts(d)
    } { (lo, hi, pos) =>
      var t = lo
      while (t < hi) {
        val d = keys(t) >>> CoarseBits
        byCoarse(pos(d)) = t
        pos(d) += 1
        t += 1
      }
    }
    starts(coarse) = n
    Par.forBlocked(0, coarse, grain = 1) { (dLo, dHi) =>
      val cursor = new Array[Int](width)
      var d = dLo
      while (d < dHi) {
        val k0 = d << CoarseBits
        val keysHere = math.min(width, numKeys - k0)
        val lo = starts(d)
        val hi = starts(d + 1)
        java.util.Arrays.fill(cursor, 0, keysHere, 0)
        var i = lo
        while (i < hi) { cursor(keys(byCoarse(i)) - k0) += 1; i += 1 }
        var at = lo
        var k = 0
        while (k < keysHere) {
          val size = cursor(k)
          offsets(k0 + k) = at
          cursor(k) = at
          at += size
          k += 1
        }
        i = lo
        while (i < hi) {
          val t = byCoarse(i)
          val k = keys(t) - k0
          place(t, cursor(k))
          cursor(k) += 1
          i += 1
        }
        d += 1
      }
    }
    offsets(numKeys) = n
  }
}
