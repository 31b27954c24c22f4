package repro.core

import repro.SparkSpec
import repro.graph.Orientation
import repro.par.Par
import repro.testutil.TestGraphs
import scala.util.Random

/** UPDATE's decrement log on the s-clique rows (DESIGN.md substitution 12):
  * applying it gives the counts and the U sequence of a sequential
  * reference, whatever the thread count and the block split.
  */
class DecrementLogSpec extends SparkSpec {
  import DecrementLog.RangeBits

  /** A clique table over the edges of a random graph, every count set to
    * `Initial`. Its capacity spans several coarse ranges, the last one
    * partial.
    */
  private def freshTable(): CliqueTable = {
    val g = TestGraphs.random(400, 0.25, 29)
    val (edges, num) = ArbNucleusDecomp.listSortedCliques(Orientation.orient(g), 2, sortNeeded = true, g.n)
    val table = CliqueTable.build(edges, num, 2, g.n)
    Par.forRange(0, table.capacity)(slot => table.addCount(slot, Initial))
    table
  }
  private val Initial = 1000000L

  private def counts(table: CliqueTable): Seq[Long] = (0 until table.capacity).map(table.count)

  /** The sequential reference for one round: each logged slot loses one per
    * occurrence, and U holds each logged slot once, by coarse range and,
    * within a range, in log order of first occurrence.
    */
  private def reference(capacity: Int, log: Seq[Int]): (Seq[Long], Seq[Int]) = {
    val c = Array.fill(capacity)(Initial)
    log.foreach(slot => c(slot) -= 1)
    (c.toSeq, log.distinct.sortBy(_ >>> RangeBits))
  }

  /** Splits `log` into `blocks` contiguous parts, applies it on `threads`
    * workers to a fresh table, and returns the counts and U.
    */
  private def applyOn(threads: Int, blocks: Int, log: Seq[Int]): (Seq[Long], Seq[Int]) = {
    val table = freshTable()
    val dl = new DecrementLog(table, blocks)
    for (b <- 0 until blocks; i <- (b.toLong * log.length / blocks).toInt until ((b + 1L) * log.length / blocks).toInt)
      dl.part(b) += log(i)
    val u = Par.withThreads(threads)(dl.apply())
    (counts(table), u.toSeq)
  }

  test("the table spans several coarse ranges, the last one partial") {
    val cap = freshTable().capacity
    assert(cap > (4 << RangeBits))
    assert(cap % (1 << RangeBits) != 0)
  }

  test("duplicates within and across blocks: counts and U match the sequential reference on 1 and 4 threads") {
    val cap = freshTable().capacity
    val rnd = new Random(3)
    // runs of one slot (duplicates inside a block) drawn from a small pool
    // (duplicates across blocks), above every grain of the apply step
    val pool = Array.fill(6 * Par.BlockGrain)(rnd.nextInt(cap))
    val log = Seq.fill(10 * Par.BlockGrain)(pool(rnd.nextInt(pool.length))).flatMap(s => Seq.fill(1 + rnd.nextInt(3))(s))
    val ref = reference(cap, log)
    assert(log.length > 2 * ref._2.length, "too few duplicates")
    for (threads <- Seq(1, 4))
      assert(applyOn(threads, 16, log) === ref, s"$threads threads")
  }

  test("U does not depend on the block split or the thread count") {
    val cap = freshTable().capacity
    val rnd = new Random(8)
    val log = Seq.fill(3 * Par.BlockGrain)(rnd.nextInt(cap))
    val ref = reference(cap, log)
    for (threads <- Seq(1, 4); blocks <- Seq(1, 3, 16))
      assert(applyOn(threads, blocks, log) === ref, s"$threads threads, $blocks blocks")
  }

  test("slots in the first and the last coarse range, the last one partial") {
    val cap = freshTable().capacity
    val last = (cap - 1) >>> RangeBits
    val log = Seq(cap - 1, 0, last << RangeBits, 5, cap - 1, 1 << RangeBits, 0, cap - 2, 5)
    val ref = reference(cap, log)
    assert(ref._2 === Seq(0, 5, 1 << RangeBits, cap - 1, last << RangeBits, cap - 2))
    for (threads <- Seq(1, 4))
      assert(applyOn(threads, 4, log) === ref, s"$threads threads")
  }

  test("an empty log changes no count and gives an empty U, and the next round still applies") {
    val table = freshTable()
    val dl = new DecrementLog(table, 4)
    val before = counts(table)
    assert(Par.withThreads(4)(dl.apply()).isEmpty)
    assert(counts(table) === before)
    // a slot applied in one round is emitted again in the next
    for (round <- 1 to 2) {
      dl.part(round) += 7; dl.part(0) += 7
      assert(Par.withThreads(4)(dl.apply()).toSeq === Seq(7))
      assert(table.count(7) === Initial - 2 * round)
    }
    assert(dl.apply().isEmpty, "the parts are cleared after each round")
  }
}
