package repro.graph

import java.util.concurrent.atomic.AtomicInteger
import repro.par.Par

/** UPDATE's input at (3,4) on a rank-relabeled graph (DESIGN.md
  * substitution 11): one row per edge of the DAG, by the edge's position p
  * in the DAG's `adj`. Row p, `entries(offsets(p) until offsets(p + 1))`,
  * holds one entry per triangle through that edge, ascending: its third
  * vertex x in the high 32 bits and the triangle's slot in the clique table
  * in the low 32 bits ([[entry]]), so a merge that finds x reads its slot
  * from the same cache line.
  *
  * For s = r + 1 every other r-subset of an s-clique found from a peeled
  * triangle (a, b, c) is one of its edges plus the new vertex x. So the x
  * common to the rows of ab, ac and bc are exactly the 4-cliques through
  * (a, b, c), and the three entries give the slots of (a, b, x), (a, c, x)
  * and (b, c, x): no table probe and no sort ([[commonAt]]). The rows also
  * keep each triangle's three edge positions and the triangle at each slot
  * of T, so UPDATE goes from a peeled slot to its rows without decoding the
  * slot.
  */
final class TriangleRows private (
    val offsets: Array[Int],
    val entries: Array[Long],
    /** The index of each row's first entry above the edge's head w: row
      * (u, w)'s triangles (u, w, x), in the order they are listed.
      */
    uppers: Array[Int],
    /** Triangle t's edge positions ab, ac and bc at `3t until 3t + 3`, the
      * triangles in listing (lexicographic) order.
      */
    val edges: Array[Int],
    /** The triangle at each slot of T (unset at empty slots). */
    triangleAt: Array[Int],
    /** The longest row's length. */
    val maxRow: Int
) {

  /** Words held: one per offset, upper start, edge position and slot of T,
    * and two per entry (a vertex and a slot; paper units, as
    * [[repro.core.TableMemory]]).
    */
  def words: Long =
    offsets.length.toLong + uppers.length + 2L * entries.length + edges.length + triangleAt.length

  /** The index of row `e`'s first entry above the edge's head. */
  def upper(e: Int): Int = uppers(e)

  /** The index of row `e`'s first entry whose vertex is above `x`, by
    * binary search.
    */
  def above(e: Int, x: Int): Int = TriangleRows.above(offsets, entries, e, x)

  /** For each 4-clique (a, b, c, x) through the triangle (a, b, c) at
    * `slot` of T, ascending in x, writes the slots of (a, b, x), (a, c, x)
    * and (b, c, x) to `out(3k until 3k + 3)`, and returns how many there
    * are: the x common to the rows of ab, ac and bc. `out` holds at least
    * `3 · maxRow` entries.
    */
  def commonAt(slot: Int, out: Array[Int]): Int = {
    val t = triangleAt(slot)
    val ab = edges(3 * t)
    val ac = edges(3 * t + 1)
    val bc = edges(3 * t + 2)
    commonFrom(offsets(ab), ab, offsets(ac), ac, offsets(bc), bc, out)
  }

  /** For each vertex x in all three rows `e1`, `e2` and `e3`, from their
    * entries `i0`, `j0` and `k0` on, ascending, writes the slots beside it,
    * in that order, to `out(3k until 3k + 3)`, and returns how many there
    * are. A step moves on every row whose head is below the largest of the
    * three heads, so a call costs at most the rows' total length.
    */
  def commonFrom(i0: Int, e1: Int, j0: Int, e2: Int, k0: Int, e3: Int, out: Array[Int]): Int = {
    val iHi = offsets(e1 + 1)
    val jHi = offsets(e2 + 1)
    val kHi = offsets(e3 + 1)
    var i = i0
    var j = j0
    var k = k0
    var n = 0
    while (i < iHi && j < jHi && k < kHi) {
      val ei = entries(i)
      val ej = entries(j)
      val ek = entries(k)
      val x = (ei >>> 32).toInt
      val y = (ej >>> 32).toInt
      val z = (ek >>> 32).toInt
      if (x == y && y == z) {
        out(3 * n) = ei.toInt
        out(3 * n + 1) = ej.toInt
        out(3 * n + 2) = ek.toInt
        n += 1
        i += 1; j += 1; k += 1
      } else {
        val top = math.max(x, math.max(y, z))
        if (x < top) i += 1
        if (y < top) j += 1
        if (z < top) k += 1
      }
    }
    n
  }
}

object TriangleRows {

  /** The row entry of third vertex `x` and slot `slot`, both non-negative;
    * `slot` = -1 gives the largest entry of `x`.
    */
  @inline def entry(x: Int, slot: Int): Long = (x.toLong << 32) | (slot & 0xFFFFFFFFL)

  /** The most entries an `Int`-indexed array holds (the JDK's soft limit). */
  final val MaxEntries: Int = Int.MaxValue - 8

  /** Throws unless the rows of `numTriangles` triangles, three entries
    * each, fit an `Int`-indexed array.
    */
  def requireFits(numTriangles: Long): Unit =
    require(
      3L * numTriangles <= MaxEntries,
      s"$numTriangles triangles need ${3L * numTriangles} row entries, over the limit of $MaxEntries " +
        "entries of an Int-indexed array"
    )

  /** The index of row `e`'s first entry whose vertex is above `x`, by
    * binary search.
    */
  private def above(offsets: Array[Int], entries: Array[Long], e: Int, x: Int): Int = {
    val key = entry(x, -1) // x's largest entry
    var lo = offsets(e)
    var hi = offsets(e + 1)
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (entries(mid) <= key) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Builds the rows of the `num` triangles of the rank-relabeled DAG `dg`:
    * `triangles(3c until 3c + 3)` holds triangle c's vertices a < b < c,
    * the triangles in lexicographic order; `edges(3c until 3c + 3)` the
    * positions in `dg.adj` of its edges ab, ac and bc; `triSlots(c)` its
    * slot in T, whose slot space is `capacity` wide. The rows keep `edges`.
    *
    * [[placeByKey]] places the 3 · `num` entries by edge, stably. As the
    * triangles come in lexicographic order, each row comes out ascending:
    * row (u, w) receives first the x < u (triangles (x, u, w), ordered by
    * first vertex), then the u < x < w ((u, x, w), by second vertex), then
    * the x > w ((u, w, x), by third vertex). That last part starts at the
    * row's first entry above w, which [[TriangleRows.upper]] records.
    */
  def build(
      dg: DirectedGraph,
      triangles: Array[Int],
      edges: Array[Int],
      triSlots: Array[Int],
      num: Int,
      capacity: Int
  ): TriangleRows = {
    requireFits(num.toLong)
    val total = 3 * num
    require(triangles.length >= total && edges.length >= total && triSlots.length >= num,
      s"$num triangles need $total vertices and edge positions and $num slots")
    val numEdges = dg.adj.length
    val offsets = new Array[Int](numEdges + 1)
    val entries = new Array[Long](total)
    // entry t is edge j = t % 3 of triangle c = t / 3; its third vertex is
    // the triangle's vertex 2 − j
    placeByKey(edges, total, numEdges, offsets) { (t, at) =>
      val c = t / 3
      val j = t - 3 * c
      entries(at) = entry(triangles(3 * c + 2 - j), triSlots(c))
    }
    val uppers = new Array[Int](numEdges)
    val longest = new AtomicInteger
    Par.forBlocked(0, numEdges, Par.BlockGrain) { (lo, hi) =>
      var most = 0
      var e = lo
      while (e < hi) {
        uppers(e) = above(offsets, entries, e, dg.adj(e))
        most = math.max(most, offsets(e + 1) - offsets(e))
        e += 1
      }
      longest.accumulateAndGet(most, math.max)
    }
    val triangleAt = new Array[Int](capacity)
    Par.forBlocked(0, num) { (lo, hi) =>
      var c = lo
      while (c < hi) { triangleAt(triSlots(c)) = c; c += 1 }
    }
    new TriangleRows(offsets, entries, uppers, edges, triangleAt, longest.get)
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
