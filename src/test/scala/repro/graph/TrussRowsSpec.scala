package repro.graph

import repro.SparkSpec
import repro.cliques.RecListCliques
import repro.core.{ArbNucleusDecomp, CliqueTable}
import repro.par.Par
import repro.testutil.TestGraphs

/** The (2,3) truss rows and the count phase on them, against brute force
  * and the per-subset count phase.
  */
class TrussRowsSpec extends SparkSpec {

  /** A rank-relabeled graph, its DAG, its edges in DAG order, T with each
    * edge's slot, and the rows built on `threads` threads.
    */
  private final class Fixture(g: CSRGraph, threads: Int) {
    val (wg, dg, _) = Orientation.relabelByRank(g)
    val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, 2, sortNeeded = false, wg.n)
    val slots = new Array[Int](num)
    val table: CliqueTable = CliqueTable.build(flat, num, 2, wg.n, slots = slots)
    val rows: TrussRows = Par.withThreads(threads) {
      val (_, numTri, edges) = ArbNucleusDecomp.listTriangles(dg, withVertices = false)
      TrussRows.build(edges, numTri, slots, table.capacity)
    }

    def slotOf(u: Int, w: Int): Int = table.slotOf(Array(math.min(u, w), math.max(u, w)))
    def row(slot: Int): Seq[Long] = (rows.offsets(slot) until rows.offsets(slot + 1)).map(rows.entries)
  }

  /** More than one coarse bucket of slots, one block of roots and one block
    * of scatter items on 4 threads.
    */
  private val er300 = TestGraphs.randomWithCliques(300, 0.15, Seq(20), 5)
  private val graphs = TestGraphs.suite :+ ("er300" -> er300)

  for ((name, g) <- graphs; threads <- Seq(1, 4)) {
    test(s"each edge's row holds, per common neighbour x of its ends u and w, the slots of ux and wx: $name, $threads thread(s)") {
      val fx = new Fixture(g, threads)
      import fx._
      var entries = 0L
      for (c <- 0 until num) {
        val (u, w) = (flat(2 * c), flat(2 * c + 1))
        val common = wg.neighbors(u).toSeq.intersect(wg.neighbors(w).toSeq)
        val expected = common.map(x => TrussRows.pair(slotOf(u, x), slotOf(w, x)))
        assert(row(slots(c)).sorted === expected.sorted, s"row of ($u, $w)")
        assert(rows.length(slots(c)) === common.size)
        entries += common.size
      }
      assert(entries === 3 * RecListCliques.countCliques(dg, 3))
      assert(rows.entries.length === entries)
      assert(rows.offsets.length === table.capacity + 1)
      assert(rows.words === table.capacity + 1L + 2L * entries)
    }
  }

  for ((name, g) <- graphs) {
    test(s"rows built on 1 and 4 threads are identical, array for array: $name") {
      val (one, four) = (new Fixture(g, 1), new Fixture(g, 4))
      assert(one.rows.offsets.toSeq === four.rows.offsets.toSeq)
      assert(one.rows.entries.toSeq === four.rows.entries.toSeq)
    }
  }

  for ((name, g) <- graphs; threads <- Seq(1, 4)) {
    test(s"(2,3) row lengths equal the per-subset count phase, slot for slot: $name, $threads thread(s)") {
      val fx = new Fixture(g, threads)
      import fx._
      val perSubset = CliqueTable.build(flat, num, 2, wg.n)
      Par.withThreads(threads) {
        ArbNucleusDecomp.addRowLengths(rows, table)
        ArbNucleusDecomp.foreachRSubsetOfScliques(dg, 2, 3, sortNeeded = false) { sub =>
          perSubset.addCount(perSubset.slotOf(sub), 1L)
        }
      }
      for (slot <- table.occupiedSlots) assert(table.count(slot) === perSubset.count(slot), s"slot $slot")
      for (slot <- 0 until table.capacity) assert(table.count(slot) === rows.length(slot).toLong, s"slot $slot")
    }
  }

  test("rows that would not fit an Int-indexed array are rejected before anything is allocated") {
    val limit = TriangleRows.MaxEntries
    val none = new Array[Int](0)
    // at the limit the rows fit, so the build goes on to check its input
    val atLimit = intercept[IllegalArgumentException](TrussRows.build(none, limit / 3, none, 1))
    assert(atLimit.getMessage.contains(s"${limit / 3} triangles need ${3 * (limit / 3)} edge positions"), atLimit.getMessage)
    val tooMany = limit / 3 + 1
    val e = intercept[IllegalArgumentException](TrussRows.build(none, tooMany, none, 1))
    assert(e.getMessage.contains(s"$tooMany triangles need ${3L * tooMany} row entries"), e.getMessage)
    assert(e.getMessage.contains(s"limit of $limit"), e.getMessage)
  }
}
