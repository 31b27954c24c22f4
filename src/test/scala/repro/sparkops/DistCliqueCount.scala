package repro.sparkops

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.cliques.RecListCliques
import repro.graph.{CSRGraph, Orientation}

/** Spark fan-out clique counting, a test oracle for the shared-memory
  * counts: the oriented graph is broadcast and root vertices are partitioned
  * across tasks, each of which runs the sequential REC-LIST-CLIQUES kernel
  * over its roots.
  */
object DistCliqueCount {

  /** Counts k-cliques of `g` with `parallelism` Spark tasks. */
  def countCliques(
      spark: SparkSession,
      g: CSRGraph,
      k: Int,
      parallelism: Int = 0
  ): Long = {
    import spark.implicits._
    if (g.n == 0) return 0L
    val dg = Orientation.orient(g)
    val p = if (parallelism > 0) parallelism else spark.sparkContext.defaultParallelism
    val bc = spark.sparkContext.broadcast(dg)
    val perTask: DataFrame = spark
      .range(dg.n)
      .repartition(p)
      .mapPartitions { it =>
        val roots = it.map(_.toInt)
        Iterator.single(RecListCliques.countFromRoots(bc.value, k, roots))
      }
      .toDF("cnt")
    val total = perTask.agg(sum(col("cnt")).as("total")).collect()(0).getLong(0)
    bc.destroy()
    total
  }

  /** Per-vertex s-clique membership counts (vertex, count), computed
    * distributed: each task accumulates a local dense array over its roots'
    * cliques, then arrays are merged. Used to validate the (1,s) initial
    * counts of the decomposition.
    */
  def perVertexCounts(
      spark: SparkSession,
      g: CSRGraph,
      s: Int,
      parallelism: Int = 0
  ): DataFrame = {
    import spark.implicits._
    val dg = Orientation.orient(g)
    val p = if (parallelism > 0) parallelism else spark.sparkContext.defaultParallelism
    val bc = spark.sparkContext.broadcast(dg)
    val n = g.n
    spark
      .range(n)
      .repartition(p)
      .mapPartitions { it =>
        val local = new Array[Long](n)
        RecListCliques.foreachCliqueFromRoots(bc.value, s, it.map(_.toInt)) { cl =>
          var j = 0
          while (j < s) { local(cl(j)) += 1; j += 1 }
        }
        local.iterator.zipWithIndex.collect { case (c, v) if c > 0 => (v.toLong, c) }
      }
      .toDF("vertex", "count")
      .groupBy("vertex")
      .agg(sum(col("count")).as("count"))
  }
}
