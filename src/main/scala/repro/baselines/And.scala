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
    val idx = new CliqueIndex(g, r)
    val (counts0, _) = idx.countScliques(s)
    val num = idx.num
    val theta = new AtomicIntegerArray(num)
    var i = 0
    while (i < num) { theta.set(i, counts0(i)); i += 1 }

    val dirty: AtomicIntegerArray = if (notification) new AtomicIntegerArray(num) else null
    if (notification) { i = 0; while (i < num) { dirty.set(i, 1); i += 1 } }

    val discoveries = new LongAdder
    val changedAny = new AtomicBoolean(true)
    var sweeps = 0L

    while (changedAny.get()) {
      changedAny.set(false)
      sweeps += 1
      Par.forBlocked(0, num, grain = 8) { (lo, hi) =>
        val scratch = idx.newScratch(s)
        val values = new repro.core.IntBuffer(64)
        var id = lo
        while (id < hi) {
          val process = !notification || dirty.getAndSet(id, 0) == 1
          if (process && theta.get(id) > 0) {
            values.clear()
            val cur = theta.get(id)
            val found = idx.foreachIncidentSclique(id, scratch) { subsetIds =>
              var mn = Int.MaxValue
              var j = 0
              while (j < subsetIds.length) {
                val sid = subsetIds(j)
                if (sid != id) {
                  val t = theta.get(sid)
                  if (t < mn) mn = t
                }
                j += 1
              }
              values += (if (mn > cur) cur else mn) // clamp at cur: h ≤ cur
            }
            discoveries.add(found)
            val h = hIndex(values, cur)
            if (h < cur) {
              theta.set(id, h)
              changedAny.set(true)
              if (notification) {
                // notify all r-cliques sharing an s-clique with id
                val found2 = idx.foreachIncidentSclique(id, scratch) { subsetIds =>
                  var j = 0
                  while (j < subsetIds.length) {
                    if (subsetIds(j) != id) dirty.set(subsetIds(j), 1)
                    j += 1
                  }
                }
                discoveries.add(found2)
              }
            }
          }
          id += 1
        }
      }
    }

    val core = new Array[Long](num)
    i = 0
    while (i < num) { core(i) = theta.get(i).toLong; i += 1 }
    BaselineResult(idx, core, sweeps, discoveries.sum(), (System.nanoTime() - t0) / 1e6)
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
