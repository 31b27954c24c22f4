package repro.perfbench

import org.apache.spark.sql.SparkSession

/** The benchmark's own local SparkSession. Partition counts are pinned to
  * constants instead of following the core count: `GraphGen.rmatEdges`
  * seeds `rand` per partition, so the generated edge set depends on how many
  * partitions `spark.range` gets. With the counts pinned, a (workload, seed)
  * pair yields the same graph on any machine. Four partitions reproduce the
  * graphs a 4-core machine generates with the repository's default session.
  */
object BenchSpark {

  val InputPartitions = 4
  val ShufflePartitions = 8

  def start(localDir: java.nio.file.Path): SparkSession = {
    val s = SparkSession
      .builder()
      .master("local[*]")
      .appName("perfbench")
      .config("spark.default.parallelism", InputPartitions.toLong)
      .config("spark.sql.leafNodeDefaultParallelism", InputPartitions.toLong)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", localDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }
}
