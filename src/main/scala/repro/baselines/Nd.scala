package repro.baselines

import repro.core.{ArbNucleusDecomp, CliqueTable, NucleusConfig}
import repro.core.ArbNucleusDecomp.UpdateScratch
import repro.graph.{CSRGraph, DirectedGraph, Orientation}

/** Result of a baseline nucleus decomposition run. `slotCore(slot)` is the
  * core number of the r-clique at each occupied slot of `table`; `rounds`
  * counts sequential peel steps and `discoveries` counts s-clique
  * enumerations — the two work metrics the paper uses to explain
  * ARB-NUCLEUS-DECOMP's speedups over these codes.
  */
final case class BaselineResult(
    table: CliqueTable,
    slotCore: Array[Long],
    rounds: Long,
    discoveries: Long,
    millis: Double
) {
  def coreMap: Map[Seq[Int], Long] = {
    val out = Map.newBuilder[Seq[Int], Long]
    val buf = new Array[Int](table.r)
    table.foreachOccupied { slot =>
      table.cliqueOf(slot, buf)
      out += buf.toSeq -> slotCore(slot)
    }
    out.result()
  }

  def maxCore: Long = {
    var mx = -1L
    table.foreachOccupied { slot => if (slotCore(slot) > mx) mx = slotCore(slot) }
    mx
  }

  // A dense view, id i being the i-th occupied slot ascending, kept only
  // because the frozen benchmark's `Digest.of(BaselineResult)` reads
  // `index.r`, `index.num`, `index.vertsOf` and `core(id)`. ROADMAP item 1
  // deletes it.
  private lazy val occupied: Array[Int] = table.occupiedSlots
  object index {
    def r: Int = table.r
    def num: Int = occupied.length
    def vertsOf(id: Int, out: Array[Int]): Unit = table.cliqueOf(occupied(id), out)
  }
  def core(id: Int): Long = slotCore(occupied(id))
}

/** What ND, PND, AND and AND-NN share with ARB-NUCLEUS-DECOMP: the clique
  * table T over the r-cliques of `g` (unrelabeled, degeneracy orientation,
  * the smallest feasible scheme, contiguous with stored pointers), its
  * counts from the shared count phase, and UPDATE's front end. The
  * baselines index their per-clique state by T's slots, so they differ from
  * ARB only in their peeling strategy.
  */
private[baselines] final class BaselineTable(g: CSRGraph, r: Int, s: Int) {
  private val dg: DirectedGraph = Orientation.orient(g)
  val table: CliqueTable = {
    val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, r, sortNeeded = true, g.n)
    CliqueTable.build(flat, num, r, g.n, NucleusConfig.smallestFeasibleScheme(r, g.n))
  }
  ArbNucleusDecomp.addScliqueCounts(dg, r, s, table, sortNeeded = true)
  // ND's heap keys and AND's h-index hold a count in 31 bits
  table.foreachOccupied { slot =>
    require(table.count(slot) <= Int.MaxValue, s"an r-clique lies in ${table.count(slot)} s-cliques, over 2^31 - 1")
  }

  def newScratch(): UpdateScratch = new UpdateScratch(r, s, math.max(1, g.maxDegree))

  /** Enumerates the s-cliques containing the r-clique at `slot`: for each,
    * `f` receives the slots of all C(s,r) r-subsets (`slot` among them) in
    * `sc.subsetIds`. Returns the number of s-cliques enumerated (the
    * "s-clique discoveries" work metric).
    */
  def foreachIncidentSclique(slot: Int, sc: UpdateScratch)(f: Array[Int] => Unit): Long = {
    table.cliqueOf(slot, sc.vsR)
    ArbNucleusDecomp.foreachIncidentSclique(g, dg, sc) { sClique =>
      var j = 0
      while (j < sc.subsets.size) { sc.subsetIds(j) = table.slotOf(sc.subsets(sClique, j)); j += 1 }
      f(sc.subsetIds)
    }
  }
}

/** ND — Sariyüce et al.'s serial global peeling [57]: repeatedly remove the
  * single r-clique with the minimum current s-clique count, assign it the
  * running maximum as its core number, and decrement the counts of
  * surviving r-cliques sharing still-live s-cliques with it. One peel per
  * step, so `rounds == num r-cliques` — the paper measures PND/ND at
  * 5608–84170× the rounds of ARB-NUCLEUS-DECOMP. The current counts are
  * T's.
  */
object Nd {

  def run(g: CSRGraph, r: Int, s: Int): BaselineResult = {
    val t0 = System.nanoTime()
    val bt = new BaselineTable(g, r, s)
    val table = bt.table
    val core = new Array[Long](table.capacity)
    val peeled = new Array[Boolean](table.capacity)
    val scratch = bt.newScratch()

    // lazy-deletion binary heap of (count, slot) packed into a Long
    val heap = new java.util.PriorityQueue[java.lang.Long](math.max(1, table.numCliques))
    table.foreachOccupied(slot => heap.add((table.count(slot) << 32) | slot.toLong))

    var kCur = 0L
    var rounds = 0L
    var discoveries = 0L

    while (!heap.isEmpty) {
      val top = heap.poll().longValue()
      val slot = (top & 0xFFFFFFFFL).toInt
      val count = top >>> 32
      if (!peeled(slot) && count == table.count(slot)) {
        rounds += 1
        kCur = math.max(kCur, count)
        core(slot) = kCur
        peeled(slot) = true
        discoveries += bt.foreachIncidentSclique(slot, scratch) { subsetSlots =>
          var dead = false
          var j = 0
          while (!dead && j < subsetSlots.length) {
            if (subsetSlots(j) != slot && peeled(subsetSlots(j))) dead = true
            j += 1
          }
          if (!dead) {
            j = 0
            while (j < subsetSlots.length) {
              val t = subsetSlots(j)
              if (t != slot) heap.add((table.addCount(t, -1L) << 32) | t.toLong)
              j += 1
            }
          }
        }
      }
    }
    BaselineResult(table, core, rounds, discoveries, (System.nanoTime() - t0) / 1e6)
  }
}

/** PND — Sariyüce et al.'s parallel global algorithm [56], as ND's peel.
  * PND peels r-clique by r-clique like ND (it does not parallelize within
  * the peeling process, the source of its 5608–84170× round blow-up vs
  * ARB); it differs only in parallelizing each peel's count updates. The
  * updates' order cannot change the result — heap entries are ordered by
  * (count, slot) and counts only decrease — so this reimplementation
  * applies them sequentially and yields ND's cores, rounds and discoveries.
  */
object Pnd {
  def run(g: CSRGraph, r: Int, s: Int): BaselineResult = Nd.run(g, r, s)
}
