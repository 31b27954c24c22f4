package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.{Harness, Tables}

/** spark-submit entrypoints, one per evaluation table:
  *
  *   spark-submit --class repro.jobs.Table1Rho target/scala-2.13/repro_2.13-*.jar
  *
  * Each writes its markdown table under bench_results/ and prints it.
  */
object JobSession {
  def local(): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("nucleus-repro")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** One evaluation table as a spark-submit entrypoint; [[RunAll]] runs the
  * same tables in sequence.
  */
sealed abstract class TableJob(val run: SparkSession => Unit) {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local()
    try run(spark)
    finally spark.stop()
  }
}

object Table1Rho extends TableJob(Tables.table1Rho(_, Harness.snapNames, maxS = 7))

object Table2TOpts extends TableJob(Tables.table2TOpts(_, Harness.snapNames, Seq((2, 3), (2, 4), (3, 4), (4, 5))))

object Table3Space extends TableJob(Tables.table3Space(_, Harness.snapNames, Seq((2, 3), (2, 4), (3, 4), (4, 5))))

object Table4OtherOpts extends TableJob(Tables.table4OtherOpts(_, Harness.snapNames, Seq((2, 3), (2, 4), (3, 4))))

object Table5Baselines extends TableJob(Tables.table5Baselines(_, Harness.snapNames))

object Table6AllRS extends TableJob(Tables.table6AllRS(_, Harness.snapNames, maxS = 7))

object Table7Scaling extends TableJob(Tables.table7Scaling(_, Seq("dblp-lite", "skitter-lite", "livejournal-lite")))

object Table8Rmat extends TableJob(Tables.table8Rmat(_))

/** Runs every table in sequence (the full evaluation). */
object RunAll
    extends TableJob(spark =>
      Seq(Table1Rho, Table2TOpts, Table3Space, Table4OtherOpts, Table5Baselines, Table6AllRS, Table7Scaling, Table8Rmat)
        .foreach(_.run(spark))
    )
