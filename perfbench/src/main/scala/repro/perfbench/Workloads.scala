package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sparkgen.GraphGen

/** A benchmark workload: one generated input graph and one (r,s) pair,
  * decomposed with `NucleusConfig.optimal`. The graph depends only on the
  * workload and the `--seed` argument (never on the machine's core count —
  * see [[BenchSpark]]); seed 0 reproduces the repository's own graph of the
  * same name (`GraphGen.snapLite` / rMAT seed 42).
  */
final case class Workload(name: String, r: Int, s: Int, graph: Workload.Graph) {
  def rawEdges(spark: SparkSession, seed: Long): DataFrame = graph.edges(spark, seed)
}

object Workload {

  /** Distance between the generator seeds of consecutive benchmark seeds.
    * Prime and coprime to the 1000-per-level offsets `rmatEdges` adds, so
    * two benchmark seeds never share a level's random stream.
    */
  private val SeedStride = 7919L

  sealed trait Graph {
    def label: String
    def edges(spark: SparkSession, seed: Long): DataFrame
  }

  /** `GraphGen.snapLite(name)` with its rMAT seed shifted by the benchmark
    * seed: the same recipe (rMAT core plus planted communities).
    */
  final case class SnapLite(graphName: String) extends Graph {
    def label: String = graphName
    def edges(spark: SparkSession, seed: Long): DataFrame = {
      val (scale, ef, comms, csize, overlap) = GraphGen.snapRecipes(graphName)
      val base = graphName.hashCode.toLong & 0xFFFF
      GraphGen
        .rmatEdges(spark, scale, ef, base + SeedStride * seed)
        .unionByName(GraphGen.plantedCliques(spark, base = 1L << (scale - 2), comms, csize, overlap))
    }
  }

  /** Plain rMAT graph (paper §6.1 parameters), seed 42 at benchmark seed 0. */
  final case class Rmat(scale: Int, edgeFactor: Int) extends Graph {
    def label: String = s"rmat($scale,$edgeFactor)"
    def edges(spark: SparkSession, seed: Long): DataFrame =
      GraphGen.rmatEdges(spark, scale, edgeFactor, 42L + SeedStride * seed)
  }

  /** Why each workload exists is in perfbench/README.md. nucleus45-orkut
    * (the workload a peel change should not move) is not in BENCHMARK.json,
    * for run time; it can still be run by name.
    */
  val all: Seq[Workload] = Seq(
    Workload("truss-orkut", 2, 3, SnapLite("orkut-lite")),
    Workload("nucleus34-rmat", 3, 4, Rmat(12, 64)),
    Workload("nucleus45-orkut", 4, 5, SnapLite("orkut-lite"))
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
