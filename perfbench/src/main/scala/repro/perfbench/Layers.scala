package repro.perfbench

import repro.cliques.{Intersect, RecListCliques}
import repro.core.{ArbNucleusDecomp, Bucketing, CliqueTable, IntBuffer, NucleusConfig, UpdateAggregator, Util}
import repro.graph.{CSRGraph, Orientation}
import repro.par.Par

/** Traced-mode replays of each layer's public functions on the workload's
  * own graph, in the order `ArbNucleusDecomp.decompose` uses them. The
  * front end (orient, list, build, count) runs with the run's worker pool;
  * the kernel replays run on the calling thread and report time per call.
  */
object Layers {

  /** r-subsets handed to `slotOf` per timed batch (bounds replay memory). */
  private val ChunkSubsets = 1 << 20

  def replay(
      g: CSRGraph,
      w: Workload,
      cfg: NucleusConfig,
      rounds: Int,
      numS: Long,
      tracer: Tracer,
      m: Metrics
  ): Unit = {
    val r = w.r
    val s = w.s
    def timed[A](name: String, metric: String)(body: => A): A = {
      val t0 = System.nanoTime()
      val a = tracer.span(name)(body)
      m.put(metric, (System.nanoTime() - t0) / 1e6, "ms")
      a
    }

    // --- graph: orientation (+ relabel), as decompose does it ---------------
    val (workGraph, dg) = timed("graph.orient", "graph.orient_ms") {
      if (cfg.relabel) {
        val (rg, rdg, _) = Orientation.relabelByRank(g, cfg.order)
        (rg, rdg)
      } else (g, Orientation.orient(g, cfg.order))
    }
    m.put("graph.degeneracy", Orientation.degeneracy(g), "count")
    m.put("graph.max_out_degree", dg.maxOutDegree, "count")

    // --- cliques: listing ---------------------------------------------------
    val (flat, numR) = timed("cliques.list_r", "cliques.list_r_ms") {
      ArbNucleusDecomp.listSortedCliques(dg, r, sortNeeded = !cfg.relabel, g.n)
    }
    timed("cliques.list_s", "cliques.list_s_ms")(RecListCliques.countCliques(dg, s))

    // --- core.table: build, then cliqueOf over every occupied slot ----------
    val table = timed("core.table.build", "core.table.build_ms") {
      CliqueTable.build(flat, numR, r, workGraph.n, cfg.scheme, cfg.contiguous, cfg.inverse)
    }
    val slots = new IntBuffer(math.max(16, numR))
    table.foreachOccupied(slots += _)
    val cliques = new Array[Int](slots.size * r)
    tracer.span("core.table.clique_of") {
      val buf = new Array[Int](r)
      val t0 = System.nanoTime()
      var i = 0
      while (i < slots.size) {
        table.cliqueOf(slots(i), buf)
        System.arraycopy(buf, 0, cliques, i * r, r)
        i += 1
      }
      m.put("core.table.clique_of_ns", (System.nanoTime() - t0).toDouble / math.max(1, slots.size), "ns/call")
    }

    // --- cliques: UPDATE's front end, once per r-clique on the static graph --
    tracer.span("cliques.common_neighbors") {
      val vs = new Array[Int](r)
      val out = new Array[Int](math.max(1, workGraph.maxDegree))
      var found = 0L
      val t0 = System.nanoTime()
      var i = 0
      while (i < slots.size) {
        System.arraycopy(cliques, i * r, vs, 0, r)
        found += Intersect.commonNeighbors(workGraph, vs, r, out)
        i += 1
      }
      val ns = System.nanoTime() - t0
      // commonNeighbors scans the adjacency of the minimum-degree member
      var scanned = 0L
      i = 0
      while (i < slots.size) {
        var mn = Int.MaxValue
        var j = 0
        while (j < r) { mn = math.min(mn, workGraph.degree(cliques(i * r + j))); j += 1 }
        scanned += mn
        i += 1
      }
      m.put("cliques.cn_calls", slots.size, "count")
      m.put("cliques.cn_ns", ns.toDouble / math.max(1, slots.size), "ns/call")
      m.put("cliques.cn_scanned", scanned.toDouble, "count")
      m.put("cliques.cn_found", found.toDouble, "count")
      m.put("cliques.cn_hit_ratio", found.toDouble / math.max(1L, scanned), "ratio")
    }

    // --- core.table.slotOf and core.aggregator over the count-phase stream --
    tracer.span("core.count_stream") {
      val combos = Util.combinations(s, r)
      val agg = UpdateAggregator(cfg.aggregation, math.max(1, table.capacity))
      val batch = math.max(1L, (numS * combos.length + rounds - 1) / math.max(1, rounds))
      val subs = new Array[Int](ChunkSubsets * r)
      val slotBuf = new Array[Int](ChunkSubsets)
      var fill = 0
      var inBatch = 0L
      var calls = 0L
      var slotNs = 0L
      var aggNs = 0L
      def flush(): Unit = {
        var t0 = System.nanoTime()
        var j = 0
        while (j < fill) { slotBuf(j) = table.slotOf(subs, j * r); j += 1 }
        slotNs += System.nanoTime() - t0
        j = 0
        while (j < fill) { table.addCount(slotBuf(j), 1L); j += 1 }
        t0 = System.nanoTime()
        j = 0
        while (j < fill) {
          if (inBatch == 0) agg.beginRound(batch)
          agg.offer(slotBuf(j))
          inBatch += 1
          if (inBatch == batch) { agg.drain(); inBatch = 0 }
          j += 1
        }
        aggNs += System.nanoTime() - t0
        calls += fill
        fill = 0
      }
      // one worker, so the consumer (and every flush) runs on this thread
      Par.withThreads(1) {
        RecListCliques.foreachClique(dg, s) { () =>
          val sBuf = new Array[Int](s)
          clique => {
            System.arraycopy(clique, 0, sBuf, 0, s)
            if (!cfg.relabel) Util.insertionSort(sBuf, s)
            var c = 0
            while (c < combos.length) {
              val combo = combos(c)
              var t = 0
              while (t < r) { subs(fill * r + t) = sBuf(combo(t)); t += 1 }
              fill += 1
              if (fill == ChunkSubsets) flush()
              c += 1
            }
          }
        }
      }
      flush()
      if (inBatch > 0) {
        val t0 = System.nanoTime()
        agg.drain()
        aggNs += System.nanoTime() - t0
      }
      m.put("core.table.slot_of_calls", calls.toDouble, "count")
      m.put("core.table.slot_of_ns", slotNs.toDouble / math.max(1L, calls), "ns/call")
      m.put("core.aggregator.offer_ns", aggNs.toDouble / math.max(1L, calls), "ns/call")
    }

    // --- core.bucketing: insert every slot, extract until empty ------------
    tracer.span("core.bucketing.drain") {
      val t0 = System.nanoTime()
      val b = new Bucketing(math.max(1, table.capacity))
      var i = 0
      while (i < slots.size) { b.insert(slots(i), table.count(slots(i))); i += 1 }
      var buckets = 0
      while (b.nextBucket() != null) buckets += 1
      m.put("core.bucketing.drain_ms", (System.nanoTime() - t0) / 1e6, "ms")
      m.put("core.bucketing.buckets", buckets, "count")
    }
  }
}
