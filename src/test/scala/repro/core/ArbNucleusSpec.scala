package repro.core

import repro.SparkSpec
import repro.baselines.RefNucleus
import repro.graph.{CSRGraph, Orientation}
import repro.testutil.TestGraphs

/** ARB-NUCLEUS-DECOMP against the brute-force reference, across graphs,
  * (r,s) values, and every optimization configuration.
  */
class ArbNucleusSpec extends SparkSpec {

  private val rsValues = Seq((1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))

  // --- paper example sanity ------------------------------------------------
  test("paper Fig. 1: (3,4) core numbers are 0 / 1 / 2 as described") {
    val g = TestGraphs.paperFigure1
    val res = ArbNucleusDecomp.decompose(g, 3, 4)
    val cores = res.coreMap
    assert(cores(Seq(2, 3, 6)) === 0L) // cdg
    assert(cores(Seq(0, 1, 5)) === 1L) // abf
    assert(cores(Seq(0, 4, 5)) === 1L) // aef
    assert(cores(Seq(1, 4, 5)) === 1L) // bef
    for (t <- Seq(0, 1, 2, 3, 4).combinations(3)) assert(cores(t) === 2L, s"triangle $t")
    assert(res.stats.rounds === 3) // the paper's example peels in 3 rounds
    assert(res.stats.numRCliques === 14L)
  }

  // --- default config vs reference, all graphs × (r,s) ----------------------
  for ((name, g) <- TestGraphs.suite; (r, s) <- rsValues) {
    test(s"matches reference: $name (r=$r, s=$s)") {
      val ref = RefNucleus.decompose(g, r, s)
      val res = ArbNucleusDecomp.decompose(g, r, s)
      assert(res.stats.numRCliques === ref.numRCliques)
      assert(res.stats.numSCliques === ref.numSCliques)
      assert(res.coreMap === ref.coreMap)
      assert(res.stats.rounds === ref.rounds, "peeling-round accounting (ρ) differs")
    }
  }

  // --- every optimization configuration on fixed graphs ---------------------
  private val configGraph = TestGraphs.randomWithCliques(45, 0.12, Seq(7, 6), 17)
  private val aggs = Seq(
    UpdateAggregator.SimpleArrayKind,
    UpdateAggregator.ListBufferKind,
    UpdateAggregator.HashTableKind
  )
  private val tableConfigs: Seq[(TableScheme, Boolean, InverseMapMethod)] = Seq(
    (OneLevel, true, BinarySearch),
    (TwoLevelArray, true, StoredPointers),
    (TwoLevelArray, true, BinarySearch),
    (TwoLevelArray, false, BinarySearch),
    (MultiLevel(2), true, StoredPointers),
    (MultiLevel(3), true, StoredPointers),
    (MultiLevel(3), false, BinarySearch)
  )

  for {
    (r, s) <- Seq((2, 3), (3, 4), (4, 5))
    (scheme, contig, inv) <- tableConfigs
    if CliqueTable.feasible(scheme, r, configGraph.n)
  } {
    test(s"config sweep table: (r=$r,s=$s) ${scheme.label} contig=$contig ${inv.label}") {
      val ref = RefNucleus.decompose(configGraph, r, s)
      val cfg = NucleusConfig(scheme = scheme, contiguous = contig, inverse = inv)
      val res = ArbNucleusDecomp.decompose(configGraph, r, s, cfg)
      assert(res.coreMap === ref.coreMap)
    }
  }

  for {
    (r, s) <- Seq((2, 3), (3, 4))
    agg <- aggs
    relabel <- Seq(true, false)
  } {
    test(s"config sweep other: (r=$r,s=$s) ${agg.label} relabel=$relabel") {
      val ref = RefNucleus.decompose(configGraph, r, s)
      val cfg = NucleusConfig(aggregation = agg, relabel = relabel)
      val res = ArbNucleusDecomp.decompose(configGraph, r, s, cfg)
      assert(res.coreMap === ref.coreMap)
    }
  }

  test("graph contraction for (2,3) matches and actually contracts") {
    val g = TestGraphs.random(60, 0.3, 23)
    val cfg = NucleusConfig(
      relabel = false,
      aggregation = UpdateAggregator.HashTableKind,
      contraction = true
    )
    // contraction covers every r = 2, so (2,4) contracts too
    for (s <- Seq(3, 4)) {
      val ref = RefNucleus.decompose(g, 2, s)
      val res = ArbNucleusDecomp.decompose(g, 2, s, cfg)
      assert(res.coreMap === ref.coreMap, s"(2,$s)")
      // enough peeling happens on this graph for the 2n-threshold to fire
      assert(res.stats.contractions >= 1, s"(2,$s): expected at least one contraction")
    }
  }

  for ((r, s) <- Seq((4, 5), (5, 6))) {
    test(s"matches RefNucleus without relabeling when r ids do not fit one 64-bit key: ($r,$s)") {
      val wide = TestGraphs.plantedK7Wide
      val cfg = NucleusConfig(relabel = false, scheme = NucleusConfig.smallestFeasibleScheme(r, wide.n))
      val got = ArbNucleusDecomp.decompose(wide, r, s, cfg).coreMap.map { case (vs, k) =>
        vs.map(_ / TestGraphs.WideFactor) -> k
      }
      val ref = RefNucleus.decompose(TestGraphs.plantedK7, r, s).coreMap
      assert(ref.nonEmpty)
      assert(got === ref)
    }
  }

  test("(1,2) equals classic k-core coreness (Matula–Beck)") {
    for ((name, g) <- TestGraphs.suite) {
      val (core, _) = Orientation.coreness(g)
      val res = ArbNucleusDecomp.decompose(g, 1, 2)
      val got = res.coreMap
      for (v <- 0 until g.n if got.contains(Seq(v))) {
        assert(got(Seq(v)) === core(v).toLong, s"$name vertex $v")
      }
      // every vertex with an edge appears as a 1-clique
      assert(got.size.toLong === g.n.toLong, name)
    }
  }

  test("maxCore and histogram are consistent") {
    val g = TestGraphs.paperFigure1
    val res = ArbNucleusDecomp.decompose(g, 3, 4)
    assert(res.maxCore === 2L)
    assert(CoreHistogram.of(res) === Map(0L -> 1L, 1L -> 3L, 2L -> 10L))
  }

  test("graphs with no r-cliques terminate immediately") {
    val g = TestGraphs.path(6)
    val res = ArbNucleusDecomp.decompose(g, 3, 4) // no triangles in a path
    assert(res.stats.numRCliques === 0L)
    assert(res.stats.rounds === 0)
    assert(res.coreMap.isEmpty)
  }

  test("s-cliques absent: every r-clique has core 0 in one round") {
    val octahedron = CSRGraph.fromEdges(
      for (u <- 0 until 6; v <- u + 1 until 6 if v != u + 3) yield (u, v), 6)
    for ((g, r, s) <- Seq(
           (TestGraphs.cycle(8), 2, 3), // edges but no triangles
           (octahedron, 3, 4)           // eight triangles but no K4
         )) {
      val res = ArbNucleusDecomp.decompose(g, r, s)
      assert(res.stats.numRCliques > 0L)
      assert(res.stats.numSCliques === 0L)
      assert(res.coreMap.values.forall(_ == 0L))
      assert(res.stats.rounds === 1)
      assert(res.stats.updateScliqueDiscoveries === 0L)
    }
  }

  test("UPDATE skips an r-clique whose s-cliques all died in earlier rounds") {
    // a diamond at (2,3) and a K5 minus an edge at (3,4): round 1 peels the
    // count-1 r-cliques, each finding its one s-clique, which drops the
    // shared edge / triangle to count 0 before round 2 peels it. A disjoint
    // K_{s+1} is peeled in round 3, so round 2 is not the last round (the
    // last round runs no UPDATE at all).
    def withClique(edges: Seq[(Int, Int)], n: Int, k: Int): CSRGraph =
      CSRGraph.fromEdges(edges ++ (for (u <- n until n + k; v <- u + 1 until n + k) yield (u, v)), n + k)
    val diamond = withClique(Seq((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)), 4, 4)
    val k5MinusEdge = withClique(for (u <- 0 until 5; v <- u + 1 until 5 if (u, v) != (3, 4)) yield (u, v), 5, 5)
    for ((g, r, s, round1) <- Seq((diamond, 2, 3, 4L), (k5MinusEdge, 3, 4, 6L))) {
      val res = ArbNucleusDecomp.decompose(g, r, s)
      assert(res.coreMap === RefNucleus.decompose(g, r, s).coreMap)
      assert(res.stats.rounds === 3)
      assert(res.stats.updateScliqueDiscoveries === round1, s"(r=$r,s=$s)")
    }
  }

  // --- aggregator × contraction × relabel, with zero-count r-cliques --------
  // er60 peels more than 2n edges before its last round at every r = 2, so
  // contraction must run on it
  private val sweepGraphs = TestGraphs.suite ++ Seq(
    "k5pendants1" -> TestGraphs.plantedK5WithPendants(10, 1),
    "k5pendants2" -> TestGraphs.plantedK5WithPendants(16, 2),
    "er60" -> TestGraphs.random(60, 0.3, 23)
  )
  for ((name, g) <- sweepGraphs; (r, s) <- Seq((2, 3), (2, 4), (2, 5), (3, 4))) {
    test(s"aggregator × contraction × relabel sweep matches reference: $name (r=$r, s=$s)") {
      val ref = RefNucleus.decompose(g, r, s)
      for (agg <- aggs; contraction <- Seq(true, false); relabel <- Seq(true, false)) {
        val cfg = NucleusConfig(aggregation = agg, contraction = contraction, relabel = relabel)
        val res = ArbNucleusDecomp.decompose(g, r, s, cfg)
        assert(res.coreMap === ref.coreMap, cfg.label)
        assert(res.stats.rounds === ref.rounds, cfg.label)
        // relabeled (2,3) reads the truss rows, which replace contraction
        if (relabel && r == 2 && s == 3)
          assert(res.stats.contractions === 0, cfg.label)
        else if (name == "er60" && contraction && r == 2)
          assert(res.stats.contractions >= 1, s"${cfg.label}: expected at least one contraction")
      }
    }
  }

  test("unoptimized config equals optimal config") {
    val g = TestGraphs.randomWithCliques(40, 0.15, Seq(6, 5), 77)
    for ((r, s) <- Seq((2, 3), (2, 4), (3, 4))) {
      val a = ArbNucleusDecomp.decompose(g, r, s, NucleusConfig.unoptimized)
      val b = ArbNucleusDecomp.decompose(g, r, s, NucleusConfig.optimal(r, s, g.n))
      assert(a.coreMap === b.coreMap, s"(r=$r,s=$s)")
      assert(a.stats.rounds === b.stats.rounds, s"(r=$r,s=$s) rounds")
    }
  }

  test("single-thread run equals parallel run") {
    val g = TestGraphs.randomWithCliques(40, 0.15, Seq(6), 99)
    val par = ArbNucleusDecomp.decompose(g, 3, 4)
    val seq = repro.par.Par.withThreads(1) { ArbNucleusDecomp.decompose(g, 3, 4) }
    assert(par.coreMap === seq.coreMap)
    assert(par.stats.rounds === seq.stats.rounds)
  }

  // Above every grain of the parallel passes: more than Par.BlockGrain
  // slots peeled in round 1 (all core-0 slots) and, at (2,3), more than
  // Par.BlockGrain r-cliques for the unrelabeled listing to sort. The
  // paper's (2,3) pick (§6.2) runs that sort and the hash-table drain.
  private val benchGraph23 = TestGraphs.randomWithCliques(3000, 0.02, Seq(30, 20), 61)
  private val benchGraph34 = TestGraphs.randomWithCliques(1000, 0.08, Seq(20, 15), 67)
  private val paperPick23 =
    NucleusConfig(relabel = false, aggregation = UpdateAggregator.HashTableKind, contraction = true)
  for ((r, s, g, name, cfg) <- Seq(
         (2, 3, benchGraph23, "optimal", NucleusConfig.optimal(2, 3, benchGraph23.n)),
         (2, 3, benchGraph23, "the paper's pick (no relabel + hash table + contraction)", paperPick23),
         (3, 4, benchGraph34, "optimal", NucleusConfig.optimal(3, 4, benchGraph34.n))
       )) {
    test(s"bench-scale ($r,$s), $name: 1 thread and 4 threads give identical cores, rounds and work counters") {
      val one = repro.par.Par.withThreads(1)(ArbNucleusDecomp.decompose(g, r, s, cfg))
      val four = repro.par.Par.withThreads(4)(ArbNucleusDecomp.decompose(g, r, s, cfg))
      assert(one.core.count(_ == 0L) > repro.par.Par.BlockGrain, "round 1 peels too few slots")
      // relabeled (2,3) reads the truss rows instead of contracting
      if (r == 2) assert((one.stats.contractions > 0) === !cfg.relabel)
      if (!cfg.relabel)
        assert(one.stats.numRCliques > repro.par.Par.BlockGrain, "too few r-cliques to sort in parallel")
      assert(java.util.Arrays.equals(one.core, four.core))
      assert(one.stats.rounds === four.stats.rounds)
      assert(one.stats.updateScliqueDiscoveries === four.stats.updateScliqueDiscoveries)
      assert(one.stats.contractions === four.stats.contractions)
      assert(one.stats.numSCliques === four.stats.numSCliques)
    }
  }

  test("bench-scale (3,4): the row kernel (relabel on) and the generic UPDATE (relabel off) give identical cores, rounds and work counters") {
    val cfg = NucleusConfig.optimal(3, 4, benchGraph34.n)
    val rows = ArbNucleusDecomp.decompose(benchGraph34, 3, 4, cfg)
    val generic = ArbNucleusDecomp.decompose(benchGraph34, 3, 4, cfg.copy(relabel = false))
    assert(rows.coreMap === generic.coreMap)
    assert(rows.stats.rounds === generic.stats.rounds)
    assert(rows.stats.numSCliques === generic.stats.numSCliques)
    assert(rows.stats.updateScliqueDiscoveries === generic.stats.updateScliqueDiscoveries)
    assert(rows.stats.updateScliqueDiscoveries > 0L)
  }

  test("sideWords counts the s-clique rows at every relabeled s = r + 1 and the r = 2 slot map elsewhere, and tableMemory stays T alone") {
    val g = TestGraphs.randomWithCliques(200, 0.1, Seq(12), 71)
    val m = g.adj.length // CSR entries, the r = 2 slot map
    for ((r, s, cfg) <- Seq(
           (3, 4, NucleusConfig.optimal(3, 4, g.n)),
           (2, 3, NucleusConfig.optimal(2, 3, g.n)),
           (2, 3, NucleusConfig.optimal(2, 3, g.n).copy(relabel = false)),
           (2, 4, NucleusConfig.optimal(2, 4, g.n)),
           (3, 4, NucleusConfig.optimal(3, 4, g.n).copy(relabel = false)),
           (3, 5, NucleusConfig.optimal(3, 5, g.n)),
           (4, 5, NucleusConfig.optimal(4, 5, g.n)),
           (4, 5, NucleusConfig.optimal(4, 5, g.n).copy(relabel = false)),
           (1, 2, NucleusConfig.optimal(1, 2, g.n)),
           (2, 3, NucleusConfig.unoptimized)
         )) {
      val res = ArbNucleusDecomp.decompose(g, r, s, cfg)
      val st = res.stats
      val expected =
        if (cfg.relabel && s == r + 1) res.table.capacity + 1L + r.toLong * s * st.numSCliques // the s-clique rows
        else if (cfg.contraction && r == 2) m.toLong
        else 0L
      assert(st.sideWords === expected, s"($r,$s) ${cfg.label}")
      assert(st.tableMemory === res.table.memory, s"($r,$s) ${cfg.label}")
    }
  }

  test("optimal (truss rows) and the paper's (2,3) pick (contraction) give identical cores, rounds and s-clique counts at bench scale") {
    val a = ArbNucleusDecomp.decompose(benchGraph23, 2, 3, NucleusConfig.optimal(2, 3, benchGraph23.n))
    val b = ArbNucleusDecomp.decompose(benchGraph23, 2, 3, paperPick23)
    assert(a.coreMap === b.coreMap)
    assert(a.stats.rounds === b.stats.rounds)
    assert(a.stats.numSCliques === b.stats.numSCliques)
    // a row lists every triangle through its edge; contracted lists hide
    // some whose other edges were peeled earlier
    assert(a.stats.updateScliqueDiscoveries >= b.stats.updateScliqueDiscoveries)
    assert(a.stats.contractions === 0 && b.stats.contractions > 0)
  }
}
