package repro.sparkops

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Spark SQL summaries of a canonical edge list (columns src, dst), checked
  * against DuckDB and against the in-memory graph in the tests.
  */
object EdgeStats {

  /** Per-vertex degrees (columns v, degree). */
  def degrees(canonical: DataFrame): DataFrame =
    canonical
      .select(col("src").as("v"))
      .unionByName(canonical.select(col("dst").as("v")))
      .groupBy("v")
      .agg(count(lit(1)).as("degree"))

  /** n (max id + 1) and m. */
  def sizeStats(canonical: DataFrame): (Long, Long) = {
    val row = canonical
      .agg(
        greatest(max(col("src")), max(col("dst"))).as("maxid"),
        count(lit(1)).as("m")
      )
      .collect()(0)
    if (row.isNullAt(0)) (0L, 0L) else (row.getLong(0) + 1, row.getLong(1))
  }
}
