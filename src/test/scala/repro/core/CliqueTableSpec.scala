package repro.core

import repro.SparkSpec
import repro.baselines.RefNucleus
import repro.graph.CSRGraph
import repro.testutil.TestGraphs

/** The multi-level hash table T (§5.1–5.3): forward/inverse maps, counts,
  * occupancy iteration, memory accounting — across every configuration.
  */
class CliqueTableSpec extends SparkSpec {

  private def sortedFlat(g: CSRGraph, r: Int): (Array[Int], Int) = {
    val sorted = RefNucleus
      .allCliques(g, r)
      .map(_.toSeq)
      .sorted(Ordering.Implicits.seqOrdering[Seq, Int])
    (sorted.flatten.toArray, sorted.length)
  }

  private val schemes: Seq[TableScheme] = Seq(OneLevel, TwoLevelArray, MultiLevel(2), MultiLevel(3), MultiLevel(4))
  private val layouts: Seq[(Boolean, InverseMapMethod)] =
    Seq((true, StoredPointers), (true, BinarySearch), (false, BinarySearch))

  for {
    (gName, g) <- Seq("fig1" -> TestGraphs.paperFigure1, "er40" -> TestGraphs.random(40, 0.25, 1),
      "planted" -> TestGraphs.randomWithCliques(50, 0.1, Seq(7, 6), 3))
    r <- 1 to 4
    scheme <- schemes
    if CliqueTable.feasible(scheme, r, g.n)
    (contig, inv) <- layouts
  } {
    test(s"roundtrip $gName r=$r ${scheme.label} contig=$contig ${inv.label}") {
      val (flat, num) = sortedFlat(g, r)
      val table = CliqueTable.build(flat, num, r, g.n, scheme, contig, inv)
      assert(table.numCliques === num)
      // forward + inverse map agree for every clique
      val out = new Array[Int](r)
      var checked = 0
      for (i <- 0 until num) {
        val vs = flat.slice(i * r, i * r + r)
        val slot = table.slotOf(vs)
        assert(slot >= 0, s"clique ${vs.toSeq} not found")
        table.cliqueOf(slot, out)
        assert(out.toSeq === vs.toSeq, s"inverse map wrong at slot $slot")
        checked += 1
      }
      assert(checked === num)
      // occupancy iteration hits each clique exactly once
      var seen = 0
      val distinct = scala.collection.mutable.Set[Int]()
      table.foreachOccupied { slot => seen += 1; distinct += slot }
      assert(seen === num)
      assert(distinct.size === num)
      // absent cliques are not found
      if (num > 0 && r >= 2) {
        val probe = Array.tabulate(r)(i => i)
        val all = RefNucleus.allCliques(g, r).map(_.toSeq).toSet
        if (!all.contains(probe.toSeq)) assert(table.slotOf(probe) === -1)
      }
    }
  }

  test("counts are atomic and slot-addressed") {
    val g = TestGraphs.complete(8)
    val (flat, num) = sortedFlat(g, 2)
    val table = CliqueTable.build(flat, num, 2, g.n, TwoLevelArray, contiguous = true, StoredPointers)
    val slots = (0 until num).map(i => table.slotOf(flat.slice(2 * i, 2 * i + 2)))
    repro.par.Par.forRange(0, 1000) { i => table.addCount(slots(i % num), 1L) }
    var total = 0L
    table.foreachOccupied { s => total += table.count(s) }
    assert(total === 1000L)
  }

  test("stored pointers require contiguous storage") {
    val g = TestGraphs.paperFigure1
    val (flat, num) = sortedFlat(g, 2)
    intercept[IllegalArgumentException] {
      CliqueTable.build(flat, num, 2, g.n, TwoLevelArray, contiguous = false, StoredPointers)
    }
  }

  test("feasibility mirrors the paper's large-r infeasibility") {
    // 2^20 vertices: 20 bits/vertex, 62-bit keys → one-level caps at r=3
    val n = 1 << 20
    assert(CliqueTable.feasible(OneLevel, 3, n))
    assert(!CliqueTable.feasible(OneLevel, 4, n))
    assert(CliqueTable.feasible(TwoLevelArray, 4, n))
    assert(!CliqueTable.feasible(TwoLevelArray, 5, n))
    assert(CliqueTable.feasible(MultiLevel(3), 5, n))
    assert(!CliqueTable.feasible(MultiLevel(5), 4, n)) // ℓ > r
  }

  test("nextPow2 rounds up and names its 2^30 limit") {
    assert(Util.nextPow2(1) === 1 && Util.nextPow2(5) === 8 && Util.nextPow2(1 << 30) === (1 << 30))
    val e = intercept[IllegalArgumentException](Util.nextPow2((1 << 30) + 1))
    assert(e.getMessage.contains(s"capacity ${(1 << 30) + 1} exceeds nextPow2's limit of 2^30"))
    val neg = intercept[IllegalArgumentException](Util.nextPow2(-1))
    assert(neg.getMessage.contains("capacity -1 is negative"))
  }

  test("slotLayout sizes groups in Long and names the count it cannot hold") {
    // 300M cliques: (cnt · 10 + 6) / 7 overflows Int, but fits one 2^29 group
    val (caps, offsets) = CliqueTable.slotLayout(Array(300000000, 0, 1), hasBarriers = true)
    assert(caps.toSeq === Seq(1 << 29, 0, 2))
    assert(offsets.toSeq === Seq(0, (1 << 29) + 1, (1 << 29) + 1, (1 << 29) + 4))
    val group = intercept[IllegalArgumentException](CliqueTable.slotLayout(Array(5, 800000000), hasBarriers = false))
    assert(group.getMessage.contains("group 1 holds 800000000 r-cliques"))
    assert(group.getMessage.contains("group limit of 2^30"))
    val total = intercept[IllegalArgumentException](
      CliqueTable.slotLayout(Array(600000000, 600000000), hasBarriers = true))
    assert(total.getMessage.contains(s"2 groups need ${(1L << 31) + 2} slots"))
    assert(total.getMessage.contains(s"Int slot limit of ${Int.MaxValue}"))
  }

  test("two-level saves key words over one-level on overlapping cliques (§5.1)") {
    val g = TestGraphs.complete(10) // heavy prefix overlap
    val (flat, num) = sortedFlat(g, 3)
    val one = CliqueTable.build(flat, num, 3, g.n, OneLevel, contiguous = true, BinarySearch)
    val two = CliqueTable.build(flat, num, 3, g.n, TwoLevelArray, contiguous = true, StoredPointers)
    assert(two.memory.keyWords < one.memory.keyWords)
  }

  test("empty table behaves") {
    val table = CliqueTable.build(Array.empty[Int], 0, 3, 10, TwoLevelArray, contiguous = true, StoredPointers)
    assert(table.numCliques === 0)
    assert(table.slotOf(Array(0, 1, 2)) === -1)
    var c = 0
    table.foreachOccupied(_ => c += 1)
    assert(c === 0)
  }

  test("slot index space is consistent between contiguous and non-contiguous (§5.3)") {
    val g = TestGraphs.random(30, 0.3, 9)
    val (flat, num) = sortedFlat(g, 3)
    val a = CliqueTable.build(flat, num, 3, g.n, TwoLevelArray, contiguous = true, BinarySearch)
    val b = CliqueTable.build(flat, num, 3, g.n, TwoLevelArray, contiguous = false, BinarySearch)
    for (i <- 0 until num) {
      val vs = flat.slice(3 * i, 3 * i + 3)
      assert(a.slotOf(vs) === b.slotOf(vs))
    }
  }
}
