package repro.baselines

import java.util.concurrent.atomic.{AtomicBoolean, AtomicIntegerArray, LongAdder}
import repro.graph.CSRGraph
import repro.par.Par

/** AND / AND-NN — Sariyüce et al.'s asynchronous local nucleus
  * decomposition [56]. Every r-clique iterates a local h-index update
  * until global convergence:
  *
  *   θ(R) ← H( { min_{R' ⊂ S, R' ≠ R} θ(R')  :  s-cliques S ∋ R } )
  *
  * where H is the h-index and θ is initialized to the s-clique count. The
  * fixpoint is exactly the (r,s)-clique core number. Updates are
  * asynchronous: sweeps read the latest θ values written by other threads
  * (θ only decreases, so races are benign).
  *
  * AND-NN adds the notification mechanism: an r-clique is re-processed only
  * after a clique it shares an s-clique with has changed — trading extra
  * space (the notification flags) for skipped recomputations.
  *
  * The instrumented `discoveries` counter (s-cliques enumerated across all
  * sweeps) reproduces the paper's measurement that AND computes 1.69–46×
  * (median 15×) and AND-NN up to 3.45× (median 1.4×) the s-cliques of
  * ARB-NUCLEUS-DECOMP.
  */
object And {

  def run(g: CSRGraph, r: Int, s: Int, notification: Boolean = false): BaselineResult = {
    val t0 = System.nanoTime()
    val bt = new BaselineTable(g, r, s)
    // θ lives in T's counts, which start at the s-clique counts
    val table = bt.table
    val occupied = table.occupiedSlots

    val dirty: AtomicIntegerArray = if (notification) new AtomicIntegerArray(table.capacity) else null
    if (notification) occupied.foreach(dirty.set(_, 1))

    val discoveries = new LongAdder
    val changedAny = new AtomicBoolean(true)
    var sweeps = 0L

    while (changedAny.get()) {
      changedAny.set(false)
      sweeps += 1
      Par.forBlocked(0, occupied.length, grain = 8) { (lo, hi) =>
        val scratch = bt.newScratch()
        val values = new repro.core.IntBuffer(64)
        var i = lo
        while (i < hi) {
          val slot = occupied(i)
          val process = !notification || dirty.getAndSet(slot, 0) == 1
          val cur = table.count(slot)
          if (process && cur > 0) {
            values.clear()
            val found = bt.foreachIncidentSclique(slot, scratch) { subsetSlots =>
              var mn = cur // clamp at cur: h ≤ cur
              var j = 0
              while (j < subsetSlots.length) {
                val t = subsetSlots(j)
                if (t != slot) mn = math.min(mn, table.count(t))
                j += 1
              }
              values += mn.toInt
            }
            discoveries.add(found)
            val h = hIndex(values, cur.toInt)
            if (h < cur) {
              table.addCount(slot, h - cur)
              changedAny.set(true)
              if (notification) {
                // notify all r-cliques sharing an s-clique with slot
                val found2 = bt.foreachIncidentSclique(slot, scratch) { subsetSlots =>
                  var j = 0
                  while (j < subsetSlots.length) {
                    if (subsetSlots(j) != slot) dirty.set(subsetSlots(j), 1)
                    j += 1
                  }
                }
                discoveries.add(found2)
              }
            }
          }
          i += 1
        }
      }
    }

    val core = new Array[Long](table.capacity)
    occupied.foreach(slot => core(slot) = table.count(slot))
    BaselineResult(table, core, sweeps, discoveries.sum(), (System.nanoTime() - t0) / 1e6)
  }

  /** h-index of `values` (each already clamped to ≤ cap): the largest h
    * such that at least h values are ≥ h.
    */
  private def hIndex(values: repro.core.IntBuffer, cap: Int): Int = {
    if (cap == 0) return 0
    val freq = new Array[Int](cap + 1)
    values.foreach { v => freq(math.min(v, cap)) += 1 }
    var h = cap
    var atLeast = freq(cap)
    while (h > 0 && atLeast < h) {
      h -= 1
      atLeast += freq(h)
    }
    h
  }
}

/** AND-NN: AND with the notification mechanism enabled. */
object AndNn {
  def run(g: CSRGraph, r: Int, s: Int): BaselineResult = And.run(g, r, s, notification = true)
}
