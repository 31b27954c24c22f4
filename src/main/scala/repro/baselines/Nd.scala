package repro.baselines

import repro.graph.CSRGraph

/** Result of a baseline nucleus decomposition run. `core(id)` indexes the
  * run's [[CliqueIndex]]; `rounds` counts sequential peel steps and
  * `discoveries` counts s-clique enumerations — the two work metrics the
  * paper uses to explain ARB-NUCLEUS-DECOMP's speedups over these codes.
  */
final case class BaselineResult(
    index: CliqueIndex,
    core: Array[Long],
    rounds: Long,
    discoveries: Long,
    millis: Double
) {
  def coreMap: Map[Seq[Int], Long] = {
    val out = Map.newBuilder[Seq[Int], Long]
    val buf = new Array[Int](index.r)
    var id = 0
    while (id < index.num) {
      index.vertsOf(id, buf)
      out += buf.toSeq -> core(id)
      id += 1
    }
    out.result()
  }
  def maxCore: Long = if (core.isEmpty) -1L else core.max
}

/** ND — Sariyüce et al.'s serial global peeling [57]: repeatedly remove the
  * single r-clique with the minimum current s-clique count, assign it the
  * running maximum as its core number, and decrement the counts of
  * surviving r-cliques sharing still-live s-cliques with it. One peel per
  * step, so `rounds == num r-cliques` — the paper measures PND/ND at
  * 5608–84170× the rounds of ARB-NUCLEUS-DECOMP.
  */
object Nd {

  def run(g: CSRGraph, r: Int, s: Int): BaselineResult = {
    val t0 = System.nanoTime()
    val idx = new CliqueIndex(g, r)
    val (counts0, _) = idx.countScliques(s)
    val num = idx.num
    val counts = counts0.clone()
    val core = new Array[Long](num)
    val peeled = new Array[Boolean](num)
    val scratch = idx.newScratch(s)

    // lazy-deletion binary heap of (count, id) packed into a Long
    val heap = new java.util.PriorityQueue[java.lang.Long](math.max(1, num))
    var id = 0
    while (id < num) { heap.add((counts(id).toLong << 32) | id.toLong); id += 1 }

    var kCur = 0L
    var rounds = 0L
    var discoveries = 0L

    while (!heap.isEmpty) {
      val top = heap.poll().longValue()
      val cid = (top & 0xFFFFFFFFL).toInt
      val ccount = top >>> 32
      if (!peeled(cid) && ccount == counts(cid).toLong) {
        rounds += 1
        kCur = math.max(kCur, ccount)
        core(cid) = kCur
        peeled(cid) = true
        discoveries += idx.foreachIncidentSclique(cid, scratch) { subsetIds =>
          var dead = false
          var j = 0
          while (!dead && j < subsetIds.length) {
            if (subsetIds(j) != cid && peeled(subsetIds(j))) dead = true
            j += 1
          }
          if (!dead) {
            j = 0
            while (j < subsetIds.length) {
              val t = subsetIds(j)
              if (t != cid) {
                counts(t) -= 1
                heap.add((counts(t).toLong << 32) | t.toLong)
              }
              j += 1
            }
          }
        }
      }
    }
    BaselineResult(idx, core, rounds, discoveries, (System.nanoTime() - t0) / 1e6)
  }
}

/** PND — Sariyüce et al.'s parallel global algorithm [56], as ND's peel.
  * PND peels r-clique by r-clique like ND (it does not parallelize within
  * the peeling process, the source of its 5608–84170× round blow-up vs
  * ARB); it differs only in parallelizing each peel's count updates. The
  * updates' order cannot change the result — heap entries are ordered by
  * (count, id) and counts only decrease — so this reimplementation applies
  * them sequentially and yields ND's cores, rounds and discoveries.
  */
object Pnd {
  def run(g: CSRGraph, r: Int, s: Int): BaselineResult = Nd.run(g, r, s)
}
