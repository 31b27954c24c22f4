package repro.sparkops

import org.apache.spark.SparkException
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.CSRGraph

/** DataFrame-side edge-list preparation: the outer orchestration layer that
  * feeds the shared-memory nucleus decomposition core (DESIGN.md
  * "Reproduction strategy").
  */
object EdgeOps {

  /** Canonicalizes an edge DataFrame (columns src, dst): drops self loops,
    * orients each undirected edge as (u < v), and deduplicates.
    */
  def canonicalize(edges: DataFrame): DataFrame =
    edges
      .select(
        least(col("src"), col("dst")).cast("long").as("src"),
        greatest(col("src"), col("dst")).cast("long").as("dst")
      )
      .where(col("src") =!= col("dst"))
      .distinct()

  /** Collects an edge DataFrame (columns src, dst; canonical or not) into
    * an in-memory CSR graph for the shared-memory core, with `n` = 1 + the
    * largest vertex id. Spark orients each edge as (least, greatest), drops
    * self loops and packs the pair into one `long` ([[CSRGraph.packEdge]]);
    * each partition comes back as a single `Array[Long]`, and after the
    * collect [[CSRGraph.fromPackedEdges]] dedups and builds in one sort. So
    * no shuffle runs, and duplicates cost one collected key each.
    * A vertex id that is negative or above `Int.MaxValue` throws an
    * `IllegalArgumentException` naming it.
    */
  def toCSR(edges: DataFrame): CSRGraph = {
    val u = least(col("src"), col("dst")).cast("long")
    val v = greatest(col("src"), col("dst")).cast("long")
    val oriented = edges.select(u, v).where(u =!= v)
    val parts =
      try {
        oriented.queryExecution.toRdd.mapPartitions { rows =>
          val keys = new scala.collection.mutable.ArrayBuilder.ofLong
          rows.foreach { row =>
            val a = row.getLong(0)
            val b = row.getLong(1)
            if (a < 0) throw new IllegalArgumentException(s"vertex id $a is negative")
            if (b > Int.MaxValue) throw new IllegalArgumentException(s"vertex id $b exceeds Int.MaxValue")
            keys += CSRGraph.packEdge(a.toInt, b.toInt)
          }
          Iterator.single(keys.result())
        }.collect()
      } catch {
        // rethrow the id check as itself, not wrapped in Spark's task failure
        case e: SparkException if e.getCause.isInstanceOf[IllegalArgumentException] => throw e.getCause
      }
    val total = parts.iterator.map(_.length.toLong).sum
    require(total <= Int.MaxValue, s"$total edge rows do not fit in one array")
    val keys = new Array[Long](total.toInt)
    var off = 0
    parts.foreach { p => System.arraycopy(p, 0, keys, off, p.length); off += p.length }
    var maxId = -1
    var i = 0
    while (i < keys.length) { val w = keys(i).toInt; if (w > maxId) maxId = w; i += 1 }
    CSRGraph.fromPackedEdges(keys, keys.length, maxId + 1)
  }

  /** One-call pipeline: generated/ingested raw edges → CSR. No
    * [[canonicalize]]: [[toCSR]] orients the raw rows and the sort after
    * its collect dedups them, which is cheaper than Spark's `distinct`
    * shuffle.
    */
  def csrOf(spark: SparkSession, rawEdges: DataFrame): CSRGraph = {
    val _ = spark
    toCSR(rawEdges)
  }
}
