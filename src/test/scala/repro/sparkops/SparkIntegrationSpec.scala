package repro.sparkops

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baselines.RefNucleus
import repro.cliques.RecListCliques
import repro.core.ArbNucleusDecomp
import repro.graph.{CSRGraph, Orientation}
import repro.sparkgen.GraphGen
import repro.testutil.TestGraphs

/** Spark orchestration: generation, canonicalization, distributed counting,
  * and SQL/DuckDB oracles over the same graphs the core processes.
  */
class SparkIntegrationSpec extends SparkSpec {

  private def edgesDf(pairs: Seq[(Int, Int)]) = {
    import spark.implicits._
    pairs.map { case (u, v) => (u.toLong, v.toLong) }.toDF("src", "dst")
  }

  // --- GraphGen -------------------------------------------------------------
  test("rmatEdges is deterministic in its seed") {
    val a = GraphGen.rmatEdges(spark, 8, 4, seed = 5).collect().map(r => (r.getLong(0), r.getLong(1)))
    val b = GraphGen.rmatEdges(spark, 8, 4, seed = 5).collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(a.toSeq === b.toSeq)
  }

  test("rmatEdges stays within the vertex range and has the right count") {
    val df = GraphGen.rmatEdges(spark, 7, 3, seed = 9)
    assert(df.count() === (3L << 7))
    val row = df.agg(max(greatest(col("src"), col("dst")))).collect()(0)
    assert(row.getLong(0) < (1L << 7))
  }

  test("rmat skew: quadrant probabilities produce a heavy-tailed degree distribution") {
    val g = EdgeOps.csrOf(spark, GraphGen.rmatEdges(spark, 12, 8, seed = 3))
    val degs = (0 until g.n).map(g.degree).filter(_ > 0).sorted
    // top vertex should see far more than the mean degree
    val mean = degs.sum.toDouble / degs.size
    assert(degs.last > 3 * mean, s"max=${degs.last} mean=$mean")
  }

  test("plantedCliques yields complete communities") {
    val df = GraphGen.plantedCliques(spark, base = 100, communities = 3, size = 5)
    assert(df.count() === 3L * 10L)
    val g = EdgeOps.csrOf(spark, df)
    for (c <- 0 until 3; i <- 0 until 5; j <- i + 1 until 5)
      assert(g.hasEdge(100 + c * 5 + i, 100 + c * 5 + j))
  }

  test("snapLite recipes build and contain their planted nuclei") {
    val g = EdgeOps.csrOf(spark, GraphGen.snapLite(spark, "amazon-lite"))
    assert(g.n > 1000 && g.m > 5000)
    // the planted K6s guarantee (3,4) cores of at least 3
    val res = ArbNucleusDecomp.decompose(g, 2, 3)
    assert(res.maxCore >= 4L)
  }

  test("snapLite rejects unknown names") {
    intercept[IllegalArgumentException](GraphGen.snapLite(spark, "nope"))
  }

  // --- EdgeOps ---------------------------------------------------------------
  test("canonicalize dedupes, orients, and drops self loops") {
    val df = edgesDf(Seq((1, 0), (0, 1), (2, 2), (3, 2), (2, 3)))
    val got = EdgeOps.canonicalize(df).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    assert(got.toSeq === Seq((0L, 1L), (2L, 3L)))
  }

  test("degrees matches DuckDB (oracle)") {
    val canonical = EdgeOps.canonicalize(edgesDf(Seq((0, 1), (1, 2), (2, 0), (2, 3))))
    val got = EdgeStats.degrees(canonical)
    Oracle.assertEquivalent(
      got,
      """SELECT v, count(*) AS degree FROM (
        |  SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
        |) GROUP BY v""".stripMargin,
      "edges" -> canonical
    )
  }

  test("toCSR matches CSRGraph.fromEdges") {
    val pairs = Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 0))
    val g1 = EdgeOps.toCSR(EdgeOps.canonicalize(edgesDf(pairs)))
    val g2 = repro.graph.CSRGraph.fromEdges(pairs, 5)
    assert(g1.n === g2.n && g1.m === g2.m)
    for (v <- 0 until g1.n) assert(g1.neighbors(v).toSeq === g2.neighbors(v).toSeq)
  }

  private def assertSameCSR(a: CSRGraph, b: CSRGraph): Unit = {
    assert(a.offsets.toSeq === b.offsets.toSeq)
    assert(a.adj.toSeq === b.adj.toSeq)
  }

  private def collectPairs(df: DataFrame): Seq[(Int, Int)] =
    df.select("src", "dst").collect().toSeq.map(r => (r.getLong(0).toInt, r.getLong(1).toInt))

  for ((name, raw) <- Seq[(String, () => DataFrame)](
      "rmatEdges(10, 8)" -> (() => GraphGen.rmatEdges(spark, 10, 8, seed = 4)),
      "a hand frame with duplicates, self loops and reversals" ->
        (() => edgesDf(Seq((5, 1), (1, 5), (1, 5), (2, 2), (0, 3), (3, 0), (7, 7), (4, 2), (2, 4), (6, 0))))
    )) {
    test(s"csrOf equals toCSR(canonicalize) and fromEdges on $name") {
      val df = raw()
      val g = EdgeOps.csrOf(spark, df)
      assertSameCSR(g, EdgeOps.toCSR(EdgeOps.canonicalize(df)))
      assertSameCSR(g, CSRGraph.fromEdges(collectPairs(df)))
      assertSameCSR(g, EdgeOps.csrOf(spark, df.repartition(1)))
      assertSameCSR(g, EdgeOps.csrOf(spark, df.repartition(7)))
    }
  }

  test("toCSR rejects negative and too-large vertex ids, naming them") {
    val neg = intercept[IllegalArgumentException](EdgeOps.toCSR(edgesDf(Seq((0, 1), (-4, 2)))))
    assert(neg.getMessage.contains("vertex id -4 is negative"))
    import spark.implicits._
    val tooBig = Seq((0L, 1L), (2L, Int.MaxValue.toLong + 1)).toDF("src", "dst")
    val big = intercept[IllegalArgumentException](EdgeOps.toCSR(tooBig))
    assert(big.getMessage.contains(s"vertex id ${Int.MaxValue.toLong + 1} exceeds Int.MaxValue"))
  }

  test("sizeStats reports n and m") {
    val canonical = EdgeOps.canonicalize(edgesDf(Seq((0, 1), (1, 5))))
    assert(EdgeStats.sizeStats(canonical) === ((6L, 2L)))
  }

  // --- distributed counting ---------------------------------------------------
  for (k <- 2 to 5) {
    test(s"distributed clique count equals shared-memory count (k=$k)") {
      val g = TestGraphs.randomWithCliques(60, 0.15, Seq(7, 6), 41)
      val local = RecListCliques.countCliques(Orientation.orient(g), k)
      val dist = DistCliqueCount.countCliques(spark, g, k, parallelism = 8)
      assert(dist === local)
    }
  }

  test("distributed per-vertex counts match brute force (s=3)") {
    val g = TestGraphs.random(40, 0.25, 6)
    val triangles = RefNucleus.allCliques(g, 3)
    val expected = scala.collection.mutable.Map[Long, Long]().withDefaultValue(0L)
    triangles.foreach(_.foreach(v => expected(v.toLong) += 1))
    val got = DistCliqueCount
      .perVertexCounts(spark, g, 3, parallelism = 4)
      .collect()
      .map(r => r.getLong(0) -> r.getLong(1))
      .toMap
    assert(got === expected.toMap)
  }

  test("distributed per-vertex counts equal ARB (1,s) initial counts via cores") {
    // each vertex's (1,3)-core is bounded by its triangle membership count;
    // here we only check total mass: sum of per-vertex counts = 3 * #triangles
    val g = TestGraphs.randomWithCliques(50, 0.2, Seq(6), 8)
    val total = DistCliqueCount
      .perVertexCounts(spark, g, 3, parallelism = 4)
      .agg(sum(col("count")))
      .collect()(0)
      .getLong(0)
    val tri = RecListCliques.countCliques(Orientation.orient(g), 3)
    assert(total === 3L * tri)
  }

  // --- SQL oracles --------------------------------------------------------------
  test("Spark SQL triangle count matches DuckDB and REC-LIST-CLIQUES") {
    val g = TestGraphs.randomWithCliques(40, 0.2, Seq(6), 12)
    val pairs = for (v <- 0 until g.n; u <- g.neighbors(v) if v < u) yield (v, u)
    val canonical = EdgeOps.canonicalize(edgesDf(pairs))
    canonical.createOrReplaceTempView("e")
    val sql =
      """SELECT count(*) AS tri
        |FROM e e1 JOIN e e2 ON e1.dst = e2.src
        |          JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst""".stripMargin
    val sparkDf = spark.sql(sql)
    Oracle.assertEquivalent(sparkDf, sql.replace("FROM e ", "FROM edges ").replace("JOIN e ", "JOIN edges "), "edges" -> canonical)
    val viaSql = sparkDf.collect()(0).getLong(0)
    val viaList = RecListCliques.countCliques(Orientation.orient(g), 3)
    assert(viaSql === viaList)
  }

  test("Spark SQL 4-clique count matches DuckDB and REC-LIST-CLIQUES") {
    val g = TestGraphs.randomWithCliques(30, 0.25, Seq(6), 14)
    val pairs = for (v <- 0 until g.n; u <- g.neighbors(v) if v < u) yield (v, u)
    val canonical = EdgeOps.canonicalize(edgesDf(pairs))
    canonical.createOrReplaceTempView("e4")
    val sql =
      """SELECT count(*) AS c4
        |FROM e4 a JOIN e4 b ON a.src = b.src AND a.dst < b.dst
        |          JOIN e4 c ON c.src = a.dst AND c.dst = b.dst
        |          JOIN e4 d ON d.src = a.src AND d.dst > b.dst
        |          JOIN e4 e ON e.src = a.dst AND e.dst = d.dst
        |          JOIN e4 f ON f.src = b.dst AND f.dst = d.dst""".stripMargin
    val sparkDf = spark.sql(sql)
    // DuckDB oracle tables are VARCHAR: order comparisons need numeric casts
    val duckSql =
      """SELECT count(*) AS c4
        |FROM edges a JOIN edges b ON a.src = b.src AND CAST(a.dst AS BIGINT) < CAST(b.dst AS BIGINT)
        |             JOIN edges c ON c.src = a.dst AND c.dst = b.dst
        |             JOIN edges d ON d.src = a.src AND CAST(d.dst AS BIGINT) > CAST(b.dst AS BIGINT)
        |             JOIN edges e ON e.src = a.dst AND e.dst = d.dst
        |             JOIN edges f ON f.src = b.dst AND f.dst = d.dst""".stripMargin
    Oracle.assertEquivalent(sparkDf, duckSql, "edges" -> canonical)
    val viaSql = sparkDf.collect()(0).getLong(0)
    val viaList = RecListCliques.countCliques(Orientation.orient(g), 4)
    assert(viaSql === viaList)
  }
}
