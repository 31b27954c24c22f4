package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines.{And, AndNn, Nd, PktTruss, Pnd}
import repro.core._
import repro.graph.CSRGraph
import repro.par.Par

/** One runner per evaluation table (DESIGN.md "Evaluation tables
  * reproduced"). Each returns the rendered markdown written to
  * bench_results/, so EXPERIMENTS.md can diff paper vs measured.
  */
object Tables {

  import Harness._

  // ---------------------------------------------------------------------------
  // T1 — Fig. 7: graph sizes, ρ(r,s) and max (r,s)-core for r < s <= maxS
  // ---------------------------------------------------------------------------
  def table1Rho(
      spark: SparkSession,
      names: Seq[String],
      maxS: Int = 7,
      budgetMsPerGraph: Long = 120000L
  ): String = {
    val combos = rsCombos(maxS)
    val header = Seq("graph", "n", "m") ++ combos.map { case (r, s) => s"($r,$s)" }
    val rows = names.map { name =>
      val g = graph(spark, name)
      var spent = 0.0
      val cells = combos.map { case (r, s) =>
        if (spent > budgetMsPerGraph) "skip"
        else
          try {
            val (res, ms) = timeMs(reps = 1)(ArbNucleusDecomp.decompose(g, r, s))
            spent += ms
            s"ρ=${res.stats.rounds} κ=${res.maxCore}"
          } catch { case _: IllegalArgumentException => "—" }
      }
      Seq(name, g.n.toString, g.m.toString) ++ cells
    }
    emit("table1_rho.md", markdown(s"T1 (Fig. 7): ρ and max core, r<s≤$maxS", header, rows))
  }

  // ---------------------------------------------------------------------------
  // T2 — Fig. 8/9: speedups of T configurations over the unoptimized one-level
  // ---------------------------------------------------------------------------
  /** The T-configuration sweep of §6.2 (everything else held at the
    * unoptimized setting: no relabel, simple-array aggregation).
    */
  val tConfigs: Seq[(String, TableScheme, Boolean, InverseMapMethod)] = Seq(
    ("1-level", OneLevel, true, BinarySearch),
    ("2-level nc/bs", TwoLevelArray, false, BinarySearch),
    ("2-level c/bs", TwoLevelArray, true, BinarySearch),
    ("2-level c/sp", TwoLevelArray, true, StoredPointers),
    ("3-multi nc/bs", MultiLevel(3), false, BinarySearch),
    ("3-multi c/bs", MultiLevel(3), true, BinarySearch),
    ("3-multi c/sp", MultiLevel(3), true, StoredPointers)
  )

  /** Interleaved timing: one warm-up pass over every configuration, then
    * `reps` alternating passes, keeping each configuration's minimum. This
    * cancels the monotone JVM drift (JIT tiers, heap growth) that biases
    * consecutive per-config timing.
    */
  private def interleavedTimes[A](
      cfgs: Seq[Option[NucleusConfig]],
      reps: Int
  )(run: NucleusConfig => A): Seq[Option[Double]] = {
    cfgs.foreach(_.foreach(run(_))) // warm-up
    val best = Array.fill(cfgs.size)(Double.MaxValue)
    for (_ <- 0 until math.max(1, reps); (c, i) <- cfgs.zipWithIndex) c.foreach { cfg =>
      val t0 = System.nanoTime()
      run(cfg)
      val ms = (System.nanoTime() - t0) / 1e6
      if (ms < best(i)) best(i) = ms
    }
    cfgs.zipWithIndex.map { case (c, i) => c.map(_ => best(i)) }
  }

  private def tCfg(scheme: TableScheme, contig: Boolean, inv: InverseMapMethod): NucleusConfig =
    NucleusConfig.unoptimized.copy(scheme = scheme, contiguous = contig, inverse = inv)

  def table2TOpts(
      spark: SparkSession,
      names: Seq[String],
      rs: Seq[(Int, Int)],
      reps: Int = 2
  ): String = {
    val out = new StringBuilder
    for ((r, s) <- rs) {
      val header = Seq("graph", "1-level ms") ++ tConfigs.drop(1).map(_._1)
      val rows = names.map { name =>
        val g = graph(spark, name)
        val cfgs = tConfigs.map { case (_, scheme, contig, inv) =>
          if (CliqueTable.feasible(scheme, r, g.n)) Some(tCfg(scheme, contig, inv)) else None
        }
        val times = interleavedTimes(cfgs, reps)(cfg => ArbNucleusDecomp.decompose(g, r, s, cfg))
        val baseMs = times.head.getOrElse(Double.NaN)
        val cells = times.tail.map {
          case Some(ms) => fmt(baseMs / ms) + "x"
          case None     => "—"
        }
        Seq(name, fmt(baseMs)) ++ cells
      }
      out.append(markdown(s"T2 (Fig. 8/9): T-config speedup over 1-level, (r,s)=($r,$s)", header, rows))
    }
    emit("table2_topts.md", out.toString)
  }

  // ---------------------------------------------------------------------------
  // T3 — Fig. 8(right)/10: space savings of T configurations
  // ---------------------------------------------------------------------------
  def table3Space(
      spark: SparkSession,
      names: Seq[String],
      rs: Seq[(Int, Int)]
  ): String = {
    val out = new StringBuilder
    for ((r, _) <- rs) {
      val header = Seq("graph", "#r-cliques", "1-level words") ++ tConfigs.drop(1).map(_._1)
      val rows = names.map { name =>
        val g = graph(spark, name)
        // building T is enough to measure its structure words — no peel needed
        val dg = repro.graph.Orientation.orient(g)
        val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, r, sortNeeded = true, g.n)
        def words(scheme: TableScheme, contig: Boolean, inv: InverseMapMethod): Long =
          CliqueTable.build(flat, num, r, g.n, scheme, contig, inv).memory.structureWords
        if (!CliqueTable.feasible(OneLevel, r, g.n))
          Seq(name, num.toString, "—") ++ tConfigs.drop(1).map(_ => "—")
        else {
          val base = words(OneLevel, true, BinarySearch)
          val cells = tConfigs.drop(1).map { case (_, scheme, contig, inv) =>
            if (!CliqueTable.feasible(scheme, r, g.n)) "—"
            else fmt(base.toDouble / words(scheme, contig, inv)) + "x"
          }
          Seq(name, num.toString, base.toString) ++ cells
        }
      }
      out.append(
        markdown(s"T3 (Fig. 8/10): T space savings over 1-level, r=$r", header, rows)
      )
    }
    emit("table3_space.md", out.toString)
  }

  // ---------------------------------------------------------------------------
  // T4 — Fig. 11: relabeling / update-aggregation / contraction speedups
  // ---------------------------------------------------------------------------
  def table4OtherOpts(
      spark: SparkSession,
      names: Seq[String],
      rs: Seq[(Int, Int)],
      reps: Int = 2
  ): String = {
    val base = NucleusConfig.unoptimized.copy(scheme = TwoLevelArray, inverse = StoredPointers)
    val out = new StringBuilder
    for ((r, s) <- rs) {
      val opts: Seq[(String, NucleusConfig)] = Seq(
        "relabel" -> base.copy(relabel = true),
        "list-buffer" -> base.copy(aggregation = UpdateAggregator.ListBufferKind),
        "hash-table" -> base.copy(aggregation = UpdateAggregator.HashTableKind)
      ) ++ (if (r == 2) Seq("contraction" -> base.copy(contraction = true)) else Nil)
      val header = Seq("graph", "base ms") ++ opts.map(_._1)
      val rows = names.map { name =>
        val g = graph(spark, name)
        val cfgs = (base +: opts.map(_._2)).map(Some(_))
        val times = interleavedTimes(cfgs, reps)(cfg => ArbNucleusDecomp.decompose(g, r, s, cfg))
        val baseMs = times.head.getOrElse(Double.NaN)
        val cells = times.tail.map(t => fmt(baseMs / t.getOrElse(Double.NaN)) + "x")
        Seq(name, fmt(baseMs)) ++ cells
      }
      out.append(
        markdown(s"T4 (Fig. 11): optimization speedups over two-level baseline, (r,s)=($r,$s)", header, rows)
      )
    }
    emit("table4_otheropts.md", out.toString)
  }

  // ---------------------------------------------------------------------------
  // T5 — Fig. 12: slowdowns of PND/AND/AND-NN/ND/PKT and 1-thread ARB over ARB
  // ---------------------------------------------------------------------------
  def table5Baselines(
      spark: SparkSession,
      names: Seq[String],
      rs: Seq[(Int, Int)] = Seq((2, 3), (3, 4)),
      baselineBudgetMs: Long = 120000L
  ): String = {
    val out = new StringBuilder
    for ((r, s) <- rs) {
      val truss = (r, s) == (2, 3) // PKT computes k-truss, the (2,3) case only
      val header = Seq(
        "graph", "ARB (ms)", "ARB-1T", "ND", "PND", "AND", "AND-NN"
      ) ++ (if (truss) Seq("PKT") else Nil) ++
        Seq("PND/ARB rounds", "AND/ARB s-cliques", "AND-NN/ARB s-cliques")
      val rows = names.map { name =>
        val g = graph(spark, name)
        val (arb, arbMs) = timeMs(reps = 2)(ArbNucleusDecomp.decompose(g, r, s))
        val (seqRes, seqMs) = timeMs(reps = 1)(Par.withThreads(1)(ArbNucleusDecomp.decompose(g, r, s)))
        require(seqRes.maxCore == arb.maxCore, "1-thread run diverged")
        def guarded[A](body: => (A, Double)): Option[(A, Double)] =
          if (arbMs > baselineBudgetMs / 20) None // baselines ~20x slower: skip like the paper's OOM/timeouts
          else Some(body)
        val nd = guarded(timeMs(1)(Nd.run(g, r, s)))
        val pnd = guarded(timeMs(1)(Pnd.run(g, r, s)))
        val and = guarded(timeMs(1)(And.run(g, r, s)))
        val andNn = guarded(timeMs(1)(AndNn.run(g, r, s)))
        nd.foreach { case (res, _) => require(res.maxCore == arb.maxCore, s"ND diverged on $name") }
        and.foreach { case (res, _) => require(res.maxCore == arb.maxCore, s"AND diverged on $name") }
        def slow(o: Option[(_, Double)]): String = o.map(t => fmt(t._2 / arbMs) + "x").getOrElse("—")
        val pktCell =
          if (truss) {
            val (pkt, pktMs) = timeMs(2)(PktTruss.run(g))
            require(pkt.maxCore == arb.maxCore, s"PKT diverged on $name")
            Seq(fmt(pktMs / arbMs) + "x")
          } else Nil
        val roundsRatio =
          pnd.map(p => fmt(p._1.rounds.toDouble / arb.stats.rounds)).getOrElse("—")
        val andRatio =
          and.map(a => fmt(a._1.discoveries.toDouble / arb.stats.totalScliqueDiscoveries)).getOrElse("—")
        val andNnRatio =
          andNn.map(a => fmt(a._1.discoveries.toDouble / arb.stats.totalScliqueDiscoveries)).getOrElse("—")
        Seq(
          name, fmt(arbMs), fmt(seqMs / arbMs) + "x",
          slow(nd), slow(pnd), slow(and), slow(andNn)
        ) ++ pktCell ++ Seq(roundsRatio, andRatio, andNnRatio)
      }
      out.append(
        markdown(s"T5 (Fig. 12): slowdowns over parallel ARB, (r,s)=($r,$s)", header, rows)
      )
    }
    emit("table5_baselines.md", out.toString)
  }

  // ---------------------------------------------------------------------------
  // T6 — Fig. 13: per-(r,s) slowdown over the fastest (r,s) per graph
  // ---------------------------------------------------------------------------
  def table6AllRS(
      spark: SparkSession,
      names: Seq[String],
      maxS: Int = 7,
      budgetMsPerGraph: Long = 180000L
  ): String = {
    val combos = rsCombos(maxS, minR = 2)
    val header = Seq("graph", "fastest (ms)") ++ combos.map { case (r, s) => s"($r,$s)" }
    val rows = names.map { name =>
      val g = graph(spark, name)
      var spent = 0.0
      val times = combos.map { case (r, s) =>
        if (spent > budgetMsPerGraph) Double.NaN
        else {
          val (_, ms) = timeMs(1)(ArbNucleusDecomp.decompose(g, r, s))
          spent += ms
          ms
        }
      }
      val valid = times.filterNot(_.isNaN)
      val fastest = if (valid.isEmpty) Double.NaN else valid.min
      Seq(name, fmt(fastest)) ++ times.map(t => if (t.isNaN) "skip" else fmt(t / fastest) + "x")
    }
    emit("table6_allrs.md", markdown(s"T6 (Fig. 13): slowdown over fastest (r,s), r<s≤$maxS", header, rows))
  }

  // ---------------------------------------------------------------------------
  // T7 — Fig. 14: thread scalability
  // ---------------------------------------------------------------------------
  def table7Scaling(
      spark: SparkSession,
      names: Seq[String],
      rs: Seq[(Int, Int)] = Seq((2, 3), (2, 4), (3, 4)),
      threads: Seq[Int] = Seq(1, 2, 4, 8, 16)
  ): String = {
    val out = new StringBuilder
    for ((r, s) <- rs) {
      val header = Seq("graph") ++ threads.map(t => s"$t thr (ms)") ++ threads.drop(1).map(t => s"speedup@$t")
      val rows = names.map { name =>
        val g = graph(spark, name)
        val times = threads.map { t =>
          Par.withThreads(t)(timeMs(reps = 2)(ArbNucleusDecomp.decompose(g, r, s))._2)
        }
        Seq(name) ++ times.map(fmt) ++ times.drop(1).map(t => fmt(times.head / t) + "x")
      }
      out.append(markdown(s"T7 (Fig. 14): thread scaling, (r,s)=($r,$s)", header, rows))
    }
    emit("table7_scaling.md", out.toString)
  }

  // ---------------------------------------------------------------------------
  // T8 — Fig. 15: rMAT density sweep
  // ---------------------------------------------------------------------------
  def table8Rmat(
      spark: SparkSession,
      scales: Seq[Int] = Seq(10, 12, 14),
      edgeFactors: Seq[Int] = Seq(4, 8, 16),
      rs: Seq[(Int, Int)] = Seq((2, 3), (3, 4), (4, 5))
  ): String = {
    val header = Seq("rMAT", "n", "m") ++ rs.map { case (r, s) => s"($r,$s) ms" } ++
      rs.map { case (r, s) => s"($r,$s) #s-cliques" }
    val rows = for (sc <- scales; ef <- edgeFactors) yield {
      val g = rmatGraph(spark, sc, ef)
      val results = rs.map { case (r, s) =>
        val (res, ms) = timeMs(1)(ArbNucleusDecomp.decompose(g, r, s))
        (ms, res.stats.numSCliques)
      }
      Seq(s"2^$sc ef=$ef", g.n.toString, g.m.toString) ++
        results.map(t => fmt(t._1)) ++ results.map(_._2.toString)
    }
    emit("table8_rmat.md", markdown("T8 (Fig. 15): rMAT density sweep", header, rows))
  }
}
