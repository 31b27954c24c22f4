package repro.graph

import repro.par.Par

/** UPDATE's input at (2,3) on a rank-relabeled graph (DESIGN.md
  * substitution 11): one row per slot of the clique table T, whose slots
  * are the graph's edges. Row `slot`, `entries(offsets(slot) until
  * offsets(slot + 1))`, holds one entry per triangle through that edge: the
  * slots of the triangle's other two edges, packed in one `Long` ([[pair]]).
  *
  * A triangle through a peeled edge is the only s-clique it can lose, so
  * UPDATE reads the row of each peeled edge and settles each entry with no
  * adjacency scan, no decoding of the slot and no table probe (the paper's
  * Algorithm 2 intersects the endpoints' lists instead, and §5.6's graph
  * contraction exists to shorten those lists). A row's length is the edge's
  * triangle count, so the rows also give T's initial counts.
  */
final class TrussRows private (val offsets: Array[Int], val entries: Array[Long]) {

  /** Words held: one per offset, and two per entry (paper units, as
    * [[repro.core.TableMemory]]).
    */
  def words: Long = offsets.length.toLong + 2L * entries.length

  /** The number of triangles through the edge at `slot`. */
  def length(slot: Int): Int = offsets(slot + 1) - offsets(slot)
}

object TrussRows {

  /** The row entry of the edge slots `s1` and `s2`, both non-negative. */
  @inline def pair(s1: Int, s2: Int): Long = (s1.toLong << 32) | (s2 & 0xFFFFFFFFL)

  /** Builds the rows of the `num` triangles of a rank-relabeled DAG:
    * `edges(3c until 3c + 3)` holds the positions in the DAG's `adj` of
    * triangle c's edges, as [[repro.core.ArbNucleusDecomp.listTriangles]]
    * lists them, and `edgeSlots(p)` the slot in T of the edge at position p;
    * T's slot space is `capacity` wide. Overwrites `edges` with the slots.
    * Throws, before allocating anything, if the rows would not fit
    * ([[TriangleRows.requireFits]]).
    *
    * [[TriangleRows.placeByKey]] places each triangle's three entries by
    * slot, stably, so the rows do not depend on the thread count.
    */
  def build(edges: Array[Int], num: Int, edgeSlots: Array[Int], capacity: Int): TrussRows = {
    TriangleRows.requireFits(num.toLong)
    val total = 3 * num
    require(edges.length >= total, s"$num triangles need $total edge positions, got ${edges.length}")
    Par.forBlocked(0, total, Par.BlockGrain) { (lo, hi) =>
      var t = lo
      while (t < hi) { edges(t) = edgeSlots(edges(t)); t += 1 }
    }
    val offsets = new Array[Int](capacity + 1)
    val entries = new Array[Long](total)
    // entry t is edge j = t % 3 of triangle c = t / 3; it holds the other two
    TriangleRows.placeByKey(edges, total, capacity, offsets) { (t, at) =>
      val c3 = t - t % 3
      val j = t - c3
      entries(at) = pair(edges(if (j == 0) c3 + 1 else c3), edges(if (j == 2) c3 + 1 else c3 + 2))
    }
    new TrussRows(offsets, entries)
  }
}
