package repro.graph

import repro.SparkSpec
import repro.cliques.RecListCliques
import repro.core.{ArbNucleusDecomp, CliqueTable}
import repro.par.Par
import repro.testutil.TestGraphs

/** The (3,4) triangle rows, their listing with edge positions, and the
  * count phase on them, against brute force and the table's own probes.
  */
class TriangleRowsSpec extends SparkSpec {

  /** A rank-relabeled graph, its DAG, its triangles as the (3,4) list phase
    * lists them, T with each triangle's slot, and the rows.
    */
  private final class Fixture(g: CSRGraph) {
    val (wg, dg, _) = Orientation.relabelByRank(g)
    val (flat, num, edges) = ArbNucleusDecomp.listTriangles(dg)
    val slots = new Array[Int](num)
    val table: CliqueTable = CliqueTable.build(flat, num, 3, wg.n, slots = slots)
    val rows: TriangleRows = TriangleRows.build(dg, flat, edges, slots, num, table.capacity)

    def common(u: Int, w: Int): Seq[Int] = wg.neighbors(u).toSeq.intersect(wg.neighbors(w).toSeq).sorted
    def slotOf(vs: Int*): Int = table.slotOf(vs.sorted.toArray)
    def triangle(t: Int): (Int, Int, Int) = (flat(3 * t), flat(3 * t + 1), flat(3 * t + 2))
    /** The position of the DAG edge u→w, by a linear search of out(u). */
    def edgeAt(u: Int, w: Int): Int = dg.offsets(u) + dg.adj.slice(dg.offsets(u), dg.offsets(u + 1)).indexOf(w)
  }

  /** More than one block of roots, of scatter items and of count-phase
    * triangles on 4 threads.
    */
  private val er300 = TestGraphs.randomWithCliques(300, 0.15, Seq(20), 5)
  private val graphs = TestGraphs.suite :+ ("er300" -> er300)

  for ((name, g) <- graphs; threads <- Seq(1, 4)) {
    test(s"rows hold each DAG edge's common neighbours, ascending, beside their triangles' slots: $name, $threads thread(s)") {
      val fx = Par.withThreads(threads)(new Fixture(g))
      import fx._
      assert(flat.toSeq === ArbNucleusDecomp.listSortedCliques(dg, 3, sortNeeded = false, wg.n)._1.toSeq)
      for (t <- 0 until num) {
        val (a, b, c) = triangle(t)
        assert(edges.slice(3 * t, 3 * t + 3).toSeq === Seq(edgeAt(a, b), edgeAt(a, c), edgeAt(b, c)), s"triangle $t")
        assert(slots(t) === slotOf(a, b, c))
      }
      var entries = 0L
      for (u <- 0 until dg.n; p <- dg.offsets(u) until dg.offsets(u + 1)) {
        val w = dg.adj(p)
        val row = (rows.offsets(p) until rows.offsets(p + 1)).map(rows.entries)
        val expected = common(u, w)
        assert(row.map(e => (e >>> 32).toInt) === expected, s"row of ($u, $w)")
        assert(row.map(_.toInt) === expected.map(x => slotOf(u, w, x)), s"slots of row ($u, $w)")
        assert(rows.upper(p) === rows.offsets(p) + expected.count(_ < w), s"upper part of row ($u, $w)")
        assert(rows.maxRow >= expected.size)
        entries += row.size
      }
      assert(entries === 3L * num)
      assert(rows.edges eq edges)
      assert(rows.words === (dg.adj.length + 1L) + dg.adj.length + 2L * entries + 3L * num + table.capacity)
    }
  }

  for ((name, g) <- graphs; threads <- Seq(1, 4)) {
    test(s"rows equal, array for array, one sequential stable pass placing the entries by edge: $name, $threads thread(s)") {
      val fx = new Fixture(g)
      import fx._
      val numEdges = dg.adj.length
      val offsets = new Array[Int](numEdges + 1)
      for (t <- 0 until 3 * num) offsets(edges(t) + 1) += 1
      for (e <- 0 until numEdges) offsets(e + 1) += offsets(e)
      val next = offsets.clone()
      val entries = new Array[Long](3 * num)
      val uppers = offsets.tail.clone() // row ends, unless a triangle (u, w, x) starts the upper part
      for (t <- 0 until 3 * num) {
        val (c, j, e) = (t / 3, t % 3, edges(t))
        entries(next(e)) = TriangleRows.entry(flat(3 * c + 2 - j), slots(c))
        if (j == 0 && (c == 0 || edges(3 * c - 3) != e)) uppers(e) = next(e)
        next(e) += 1
      }
      val built = Par.withThreads(threads)(TriangleRows.build(dg, flat, edges, slots, num, table.capacity))
      assert(built.offsets.toSeq === offsets.toSeq)
      assert(built.entries.toSeq === entries.toSeq)
      assert((0 until numEdges).map(built.upper) === uppers.toSeq)
      assert(built.maxRow === (0 until numEdges).map(e => offsets(e + 1) - offsets(e)).foldLeft(0)(math.max))
    }
  }

  for ((name, g) <- graphs) {
    test(s"commonAt gives, per 4-clique through the triangle at a slot, the slots of its other three triangles: $name") {
      val fx = new Fixture(g)
      import fx._
      val out = new Array[Int](3 * math.max(1, rows.maxRow))
      for (t <- 0 until num) {
        val (a, b, c) = triangle(t)
        val k = rows.commonAt(slotOf(a, b, c), out)
        val xs = common(a, b).intersect(wg.neighbors(c).toSeq)
        assert(out.take(3 * k).toSeq === xs.flatMap(x => Seq(slotOf(a, b, x), slotOf(a, c, x), slotOf(b, c, x))), s"triangle ($a, $b, $c)")
      }
    }
  }

  for ((name, g) <- graphs; threads <- Seq(1, 4)) {
    test(s"(3,4) count phase on the rows equals the per-subset count phase, slot for slot: $name, $threads thread(s)") {
      val fx = new Fixture(g)
      import fx._
      val perSubset = CliqueTable.build(flat, num, 3, wg.n)
      Par.withThreads(threads) {
        ArbNucleusDecomp.addFourCliqueCounts(rows, flat, slots, num, table)
        ArbNucleusDecomp.foreachRSubsetOfScliques(dg, 3, 4, sortNeeded = false) { sub =>
          perSubset.addCount(perSubset.slotOf(sub), 1L)
        }
      }
      for (slot <- table.occupiedSlots) assert(table.count(slot) === perSubset.count(slot), s"slot $slot")
      assert(table.occupiedSlots.map(table.count).sum === 4 * RecListCliques.countCliques(dg, 4))
    }
  }

  test("rows that would not fit an Int-indexed array are rejected before allocating, naming the count and the limit") {
    val limit = TriangleRows.MaxEntries
    TriangleRows.requireFits(limit / 3) // fits: nothing is allocated either way
    val tooMany = limit / 3 + 1L
    val e = intercept[IllegalArgumentException](TriangleRows.requireFits(tooMany))
    assert(e.getMessage.contains(s"$tooMany triangles") && e.getMessage.contains(s"${3 * tooMany} row entries"), e.getMessage)
    assert(e.getMessage.contains(s"limit of $limit"), e.getMessage)
  }
}
