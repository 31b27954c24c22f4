package repro.perfbench

import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.cliques.RecListCliques
import repro.core.{ArbNucleusDecomp, NucleusConfig, NucleusStats}
import repro.graph.{CSRGraph, Orientation}
import repro.par.Par
import repro.sparkops.EdgeOps

/** Identity of a run's input graph; runs are comparable only when equal. */
final case class Fingerprint(n: Int, m: Long, rawRows: Long, triangles: Long, edgeHash: Long) {
  def fields: Seq[(String, Any)] =
    Seq("n" -> n, "m" -> m, "raw_rows" -> rawRows, "triangles" -> triangles, "edge_hash" -> f"$edgeHash%016x")
}

/** One benchmark run of one workload: ingest (timed as set-up), a reference
  * digest from an independent implementation, then warm `decompose` calls
  * for `seconds`, each checked against the reference. With tracing on it
  * also replays every layer on the workload's graph ([[Layers]]).
  */
final class BenchRun(
    workload: Workload,
    seed: Long,
    seconds: Double,
    tracer: Tracer,
    sparkDir: java.nio.file.Path
) {
  import BenchRun._

  val threads: Int = Runtime.getRuntime.availableProcessors
  val metrics = new Metrics
  val decomposeMs = scala.collection.mutable.ArrayBuffer.empty[Double]
  val setupS = scala.collection.mutable.ArrayBuffer.empty[Double]
  var attempted = 0
  var failed = 0
  var fingerprint: Fingerprint = _
  var reference: Digest = _
  /** Host CPU steal share during the decompose window. */
  var stealShare = 0.0
  private val log = System.err

  def run(): Unit = {
    val spark = tracer.span("spark.session")(BenchSpark.start(sparkDir))
    val (g, rawRows) =
      try ingest(spark)
      finally tracer.span("spark.stop")(spark.stop())
    Par.withThreads(threads) {
      fingerprint = tracer.span("fingerprint")(fingerprintOf(g, rawRows))
      log.println(s"[perfbench] input ${fingerprint.fields.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
      reference = tracer.span("reference")(Digest.reference(g, workload.r, workload.s))
      val cfg = NucleusConfig.optimal(workload.r, workload.s, g.n)
      for (_ <- 0 until WarmupCalls) decompose(g, cfg, timed = false)
      if (tracer.enabled) decomposeTraced(g, cfg) else decomposeUntraced(g, cfg)
      if (tracer.enabled) {
        val rounds = metrics.get("core.rounds").getOrElse(1.0).toInt
        val numS = metrics.get("core.s_cliques").getOrElse(0.0).toLong
        Layers.replay(g, workload, cfg, rounds, numS, tracer, metrics)
        singleThread(g, cfg)
      }
    }
    metrics.put("par.threads", threads, "count")
  }

  // --- ingest: generate → canonicalize → collect → CSRGraph ----------------

  private def ingest(spark: SparkSession): (CSRGraph, Long) = {
    var g: CSRGraph = null
    val collectMs = scala.collection.mutable.ArrayBuffer.empty[Double]
    val fromEdgesMs = scala.collection.mutable.ArrayBuffer.empty[Double]
    for (_ <- 0 until SetupReps) {
      g = null
      System.gc()
      val t0 = System.nanoTime()
      if (!tracer.enabled) {
        g = EdgeOps.csrOf(spark, workload.rawEdges(spark, seed))
      } else {
        // EdgeOps.toCSR split at its two layers; the row → pair conversion
        // between them is in neither span.
        val rows = tracer.span("sparkops.collect") {
          EdgeOps.canonicalize(workload.rawEdges(spark, seed)).select("src", "dst").collect()
        }
        collectMs += msSince(t0)
        val edges = rows.map(row => (row.getLong(0).toInt, row.getLong(1).toInt))
        val maxId = if (edges.isEmpty) -1 else edges.iterator.map(_._2).max
        val t1 = System.nanoTime()
        g = tracer.span("graph.from_edges")(CSRGraph.fromEdges(edges, maxId + 1))
        fromEdgesMs += msSince(t1)
      }
      setupS += (System.nanoTime() - t0) / 1e9
    }
    val rawRows = tracer.span("sparkops.count_raw")(workload.rawEdges(spark, seed).count())
    if (tracer.enabled) {
      metrics.put("sparkops.collect_ms", Stats.median(collectMs.toSeq), "ms")
      metrics.put("sparkops.raw_rows", rawRows.toDouble, "count")
      metrics.put("sparkops.dedup_ratio", g.m.toDouble / math.max(1L, rawRows), "ratio")
      metrics.put("graph.from_edges_ms", Stats.median(fromEdgesMs.toSeq), "ms")
    }
    (g, rawRows)
  }

  private def fingerprintOf(g: CSRGraph, rawRows: Long): Fingerprint = {
    val triangles = RecListCliques.countCliques(Orientation.orient(g), 3)
    Fingerprint(g.n, g.m, rawRows, triangles, Digest.ofGraph(g))
  }

  // --- decompose -----------------------------------------------------------

  /** One checked call. A full collection runs before the timer starts, so
    * garbage from one call is not collected inside the next, and the digest
    * is computed after it stops. Returns the wall time, stats
    * and JVM counter deltas, or None if the call threw or its output
    * differs from the reference.
    */
  private def decompose(g: CSRGraph, cfg: NucleusConfig, timed: Boolean, counters: Boolean = false)
      : Option[(Double, NucleusStats, JvmCounters)] = {
    System.gc()
    val before = if (counters) JvmCounters.snapshot() else null
    val t0 = System.nanoTime()
    val out =
      try Right(ArbNucleusDecomp.decompose(g, workload.r, workload.s, cfg))
      catch { case NonFatal(e) => Left(e) }
    val ms = msSince(t0)
    val delta = if (counters) JvmCounters.snapshot() - before else null
    attempted += 1
    out match {
      case Left(e) =>
        failed += 1
        log.println(s"[perfbench] decompose threw: $e")
        None
      case Right(res) =>
        val d = Digest.of(res)
        if (d != reference) {
          failed += 1
          log.println(s"[perfbench] decompose output digest $d differs from reference $reference")
          None
        } else {
          if (timed) decomposeMs += ms
          Some((ms, res.stats, delta))
        }
    }
  }

  /** Calls until the measuring window closes (at least [[MinSamples]]). */
  private def window(body: Int => Unit): Unit = {
    val steal0 = HostSteal.read()
    val t0 = System.nanoTime()
    var i = 0
    while (i < MinSamples || (System.nanoTime() - t0) / 1e9 < seconds) { body(i); i += 1 }
    stealShare = HostSteal.share(steal0, HostSteal.read())
  }

  private def decomposeUntraced(g: CSRGraph, cfg: NucleusConfig): Unit = {
    var stats: NucleusStats = null
    window { _ => decompose(g, cfg, timed = true).foreach(x => stats = x._2) }
    if (decomposeMs.nonEmpty) metrics.put("decompose_ms", Stats.median(decomposeMs.toSeq), "ms")
    metrics.put("setup_s", Stats.median(setupS.toSeq), "s")
    if (stats != null) metrics.put("table_mb", stats.tableMemory.totalWords * 8 / 1e6, "MB")
  }

  /** Alternates calls with and without the benchmark's span and counters;
    * the difference of the two medians is the tracing overhead.
    */
  private def decomposeTraced(g: CSRGraph, cfg: NucleusConfig): Unit = {
    val plain = scala.collection.mutable.ArrayBuffer.empty[Double]
    val traced = scala.collection.mutable.ArrayBuffer.empty[(Double, NucleusStats, JvmCounters)]
    val all = scala.collection.mutable.ArrayBuffer.empty[NucleusStats]
    window { i =>
      if (i % 2 == 0) decompose(g, cfg, timed = true).foreach { x => plain += x._1; all += x._2 }
      else tracer.span("core.decompose")(decompose(g, cfg, timed = true, counters = true)).foreach { x =>
        traced += x; all += x._2
      }
    }
    if (all.isEmpty) return
    def med(f: NucleusStats => Double): Double = Stats.median(all.map(f).toSeq)
    metrics.put("core.phase.orient_ms", med(_.tOrientMs), "ms")
    metrics.put("core.phase.list_ms", med(_.tListMs), "ms")
    metrics.put("core.phase.build_ms", med(_.tBuildMs), "ms")
    metrics.put("core.phase.count_ms", med(_.tCountMs), "ms")
    metrics.put("core.phase.peel_ms", med(_.tPeelMs), "ms")
    val st = all.last
    metrics.put("core.rounds", st.rounds, "count")
    metrics.put("core.r_cliques", st.numRCliques.toDouble, "count")
    metrics.put("core.s_cliques", st.numSCliques.toDouble, "count")
    metrics.put("core.update_discoveries", st.updateScliqueDiscoveries.toDouble, "count")
    metrics.put("core.useful_update_ratio",
      st.numSCliques.toDouble / math.max(1L, st.updateScliqueDiscoveries), "ratio")
    metrics.put("core.contractions", st.contractions, "count")
    metrics.put("core.table_mb", st.tableMemory.totalWords * 8 / 1e6, "MB")
    if (traced.nonEmpty) {
      val wallMs = Stats.median(traced.map(_._1).toSeq)
      metrics.put("core.gc_ms", Stats.median(traced.map(_._3.gcMs.toDouble).toSeq), "ms")
      metrics.put("core.alloc_mb", Stats.median(traced.map(_._3.allocBytes / 1e6).toSeq), "MB")
      metrics.put("par.cpu_util",
        Stats.median(traced.map(x => x._3.cpuNs / 1e6 / (x._1 * threads)).toSeq), "ratio")
      metrics.put("par.steals", Stats.median(traced.map(_._3.steals.toDouble).toSeq), "count")
      metrics.put("trace.decompose_ms", wallMs, "ms")
      if (plain.nonEmpty) metrics.put("trace.overhead_ms", wallMs - Stats.median(plain.toSeq), "ms")
    }
  }

  /** The paper's Fig. 14 baseline: the same call on one worker thread. */
  private def singleThread(g: CSRGraph, cfg: NucleusConfig): Unit =
    Par.withThreads(1) {
      tracer.span("core.decompose_1t")(decompose(g, cfg, timed = false)).foreach { case (ms, _, _) =>
        metrics.put("par.decompose_1t_ms", ms, "ms")
        metrics.get("trace.decompose_ms").foreach(nt => metrics.put("par.self_speedup", ms / nt, "ratio"))
      }
    }
}

object BenchRun {
  /** Ingest repetitions per run; `setup_s` is their median. */
  val SetupReps = 3
  /** Untimed calls before the window. After only one, the next two calls
    * still ran about 5% slower than later ones (JIT) on truss-orkut.
    */
  val WarmupCalls = 2
  /** Minimum timed `decompose` calls per run, however long they take. */
  val MinSamples = 3

  @inline def msSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6
}
