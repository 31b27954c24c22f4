package repro.graph

import repro.SparkSpec
import repro.cliques.RecListCliques
import repro.core.{ArbNucleusDecomp, CliqueTable, NucleusConfig}
import repro.par.Par
import repro.testutil.TestGraphs

/** The s-clique rows at one (r, r + 1), and the count phase and UPDATE on
  * them, against brute force, across thread counts, against the per-subset
  * count phase and against the intersecting UPDATE. [[VertexRowsSpec]] runs
  * it at (1,2), [[TrussRowsSpec]] at (2,3), [[TriangleRowsSpec]] at (3,4),
  * [[FourCliqueRowsSpec]] at (4,5) and [[FiveCliqueRowsSpec]] at (5,6), each
  * naming the row, count and limit tests in its own terms.
  */
abstract class ScliqueRowsSpec(r: Int) extends SparkSpec {

  private val s = r + 1

  /** A rank-relabeled graph, its DAG, its r-cliques as the list phase lists
    * them, T as `decompose` builds it (with each edge's slot at r = 2), and
    * the rows of its s-cliques built on `threads` threads.
    */
  private final class Fixture(g: CSRGraph, threads: Int) {
    val (wg, dg, _) = Orientation.relabelByRank(g)
    val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, r, sortNeeded = false, wg.n)
    val slots: Array[Int] = if (r == 2) new Array[Int](num) else null
    private val cfg = NucleusConfig.optimal(r, s, wg.n)
    val table: CliqueTable = CliqueTable.build(flat, num, r, wg.n, cfg.scheme, cfg.contiguous, cfg.inverse, slots)
    val rows: ScliqueRows = Par.withThreads(threads)(ArbNucleusDecomp.scliqueRows(dg, r, table, slots))

    def slotOf(vs: Seq[Int]): Int = table.slotOf(vs.sorted.toArray)
    /** Row `slot`'s entries, each as its r slots sorted. */
    def row(slot: Int): Seq[Seq[Int]] =
      (rows.offsets(slot) until rows.offsets(slot + 1)).map(i => rows.entries.slice(r * i, r * i + r).toSeq.sorted)
  }

  /** More than one coarse bucket of slots, one block of roots and one block
    * of scatter items on 4 threads.
    */
  private val er300 = TestGraphs.randomWithCliques(300, 0.15, Seq(20), 5)
  private val graphs = TestGraphs.suite :+ ("er300" -> er300)

  /** Registers `title`, per test graph on 1 and 4 threads: each row holds,
    * per s-clique through its r-clique, the slots of the s-clique's other
    * r-subsets.
    */
  protected def testRows(title: String): Unit =
    for ((name, g) <- graphs; threads <- Seq(1, 4)) {
      test(s"$title: $name, $threads thread(s)") {
        val fx = new Fixture(g, threads)
        import fx._
        var entries = 0L
        for (c <- 0 until num) {
          val clique = flat.slice(r * c, r * c + r).toSeq
          val common = clique.map(v => wg.neighbors(v).toSet).reduce(_ intersect _)
          // s-clique clique + x: its other r-subsets drop one member for x
          val expected = common.toSeq.map(x => clique.map(m => slotOf(clique.filter(_ != m) :+ x)).sorted)
          val slot = slotOf(clique)
          if (slots != null) assert(slots(c) === slot)
          assert(row(slot).sortBy(_.mkString(",")) === expected.sortBy(_.mkString(",")), s"row of $clique")
          assert(rows.length(slot) === common.size)
          entries += common.size
        }
        val numS = RecListCliques.countCliques(dg, s)
        assert(entries === s * numS)
        assert(rows.offsets.length === table.capacity + 1)
        assert(rows.entries.length === r * entries)
        assert(rows.words === table.capacity + 1L + r.toLong * s * numS)
      }
    }

  /** Registers `title`, per test graph on 1 and 4 threads: the row lengths
    * give T the counts of the per-subset count phase, slot for slot.
    */
  protected def testRowLengths(title: String): Unit =
    for ((name, g) <- graphs; threads <- Seq(1, 4)) {
      test(s"$title: $name, $threads thread(s)") {
        val fx = new Fixture(g, threads)
        import fx._
        val perSubset = CliqueTable.build(flat, num, r, wg.n)
        Par.withThreads(threads) {
          ArbNucleusDecomp.addRowLengths(rows, table)
          ArbNucleusDecomp.addScliqueCounts(dg, r, s, perSubset, sortNeeded = false)
        }
        val clique = new Array[Int](r)
        for (slot <- table.occupiedSlots) {
          table.cliqueOf(slot, clique)
          assert(table.count(slot) === perSubset.count(perSubset.slotOf(clique)), s"slot $slot")
          assert(table.count(slot) === rows.length(slot).toLong, s"slot $slot")
        }
        assert(table.occupiedSlots.map(table.count).sum === s * RecListCliques.countCliques(dg, s))
      }
    }

  /** Registers `title`: rows of more s-cliques than an `Int`-indexed array
    * holds are rejected before anything is allocated, naming the count and
    * the limit.
    */
  protected def testLimit(title: String): Unit =
    test(title) {
      val limit = ScliqueRows.MaxEntries
      val fits = limit / (r * s)
      val none = new Array[Int](0)
      // at the limit the rows fit, so the build goes on to check its input
      val atLimit = intercept[IllegalArgumentException](ScliqueRows.build(none, fits, r, 1))
      assert(atLimit.getMessage.contains(s"$fits $s-cliques need ${s * fits} subset slots"), atLimit.getMessage)
      val tooMany = fits + 1
      val e = intercept[IllegalArgumentException](ScliqueRows.build(none, tooMany, r, 1))
      assert(e.getMessage.contains(s"$tooMany $s-cliques need ${r.toLong * s * tooMany} slots in their rows"), e.getMessage)
      assert(e.getMessage.contains(s"limit of $limit"), e.getMessage)
    }

  for ((name, g) <- graphs) {
    test(s"rows built on 1 and 4 threads are identical, array for array: $name") {
      val (one, four) = (new Fixture(g, 1), new Fixture(g, 4))
      assert(one.rows.offsets.toSeq === four.rows.offsets.toSeq)
      assert(one.rows.entries.toSeq === four.rows.entries.toSeq)
    }
  }

  for ((name, g) <- graphs; threads <- Seq(1, 4)) {
    test(s"UPDATE on the rows (relabel on) finds as many s-cliques as the intersecting UPDATE (relabel off), with the same cores and rounds: $name, $threads thread(s)") {
      // without contraction the intersecting UPDATE, as the rows, finds every
      // s-clique through each peeled live r-clique
      val cfg = NucleusConfig.optimal(r, s, g.n).copy(contraction = false)
      val (rows, generic) = Par.withThreads(threads) {
        (ArbNucleusDecomp.decompose(g, r, s, cfg), ArbNucleusDecomp.decompose(g, r, s, cfg.copy(relabel = false)))
      }
      assert(rows.stats.sideWords > 0L && generic.stats.sideWords === 0L, "the rows must serve the relabeled call alone")
      assert(rows.coreMap === generic.coreMap)
      assert(rows.stats.rounds === generic.stats.rounds)
      assert(rows.stats.numSCliques === generic.stats.numSCliques)
      assert(rows.stats.updateScliqueDiscoveries === generic.stats.updateScliqueDiscoveries)
    }
  }
}
