package repro.sparkgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Spark-side synthetic graph generation (DataFrame API).
  *
  * The paper evaluates on SNAP graphs (amazon … friendster) and on rMAT
  * graphs with a=0.5, b=c=0.1, d=0.3 (§6.1). SNAP downloads are unavailable
  * offline and the large graphs exceed this container, so [[snapLite]]
  * provides named deterministic substitutes: rMAT cores scaled to a few
  * percent of each graph's size plus planted dense communities (so that
  * higher-(r,s) nuclei are non-trivial, as in the clustered real graphs).
  * All generators are deterministic in their seed.
  */
object GraphGen {

  /** rMAT quadrant probabilities of §6.1: P(0,0) = a, P(0,1) = b,
    * P(1,0) = c, P(1,1) = 1 − a − b − c = 0.3.
    */
  private val (a, b, c) = (0.5, 0.1, 0.1)

  /** rMAT edges (Chakrabarti et al. [11]): 2^scale vertices,
    * edgeFactor·2^scale generated edges (before dedup). Columns src, dst.
    */
  def rmatEdges(spark: SparkSession, scale: Int, edgeFactor: Int, seed: Long = 42): DataFrame = {
    require(scale >= 1 && scale <= 30, s"scale out of range: $scale")
    val numEdges = edgeFactor.toLong << scale
    var srcExpr = lit(0L)
    var dstExpr = lit(0L)
    for (i <- 0 until scale) {
      val q = rand(seed + 1000L * i)
      val srcBit = when(q >= a + b, 1L).otherwise(0L)
      val dstBit = when((q >= a && q < a + b) || q >= a + b + c, 1L).otherwise(0L)
      srcExpr = srcExpr + srcBit * (1L << i)
      dstExpr = dstExpr + dstBit * (1L << i)
    }
    spark
      .range(numEdges)
      .select(srcExpr.cast(LongType).as("src"), dstExpr.cast(LongType).as("dst"))
  }

  /** Edges of cliques planted on (optionally overlapping) vertex ranges:
    * community i covers vertices [base + i·stride, base + i·stride + size),
    * so stride < size chains the communities together — overlap is what
    * produces the long peeling cascades real clustered graphs show. Built
    * driver-side (tiny) and parallelized as a DataFrame.
    */
  def plantedCliques(
      spark: SparkSession,
      base: Long,
      communities: Int,
      size: Int,
      overlap: Int = 0
  ): DataFrame = {
    import spark.implicits._
    require(overlap < size, "overlap must be smaller than the community size")
    val stride = size - overlap
    val edges = for {
      ci <- 0 until communities
      lo = base + ci.toLong * stride
      i <- 0 until size
      j <- (i + 1) until size
    } yield (lo + i, lo + j)
    edges.toDF("src", "dst")
  }

  /** SNAP-substitute recipes (see DESIGN.md "Fidelity substitutions"):
    * name → (rMAT scale, edge factor, planted communities, community size,
    * community overlap). Sizes are ~1–5% of the original graphs, ordered the
    * same way (amazon < dblp < youtube < skitter < livejournal < orkut);
    * the dense rMAT core supplies heavy-tailed triangle structure and the
    * overlapping planted communities supply the higher-order nuclei and
    * long peeling cascades the papers' clustered real graphs have.
    */
  val snapRecipes: Map[String, (Int, Int, Int, Int, Int)] = Map(
    "amazon-lite"      -> (12, 16, 60, 7, 2),
    "dblp-lite"        -> (12, 32, 80, 8, 3),
    "youtube-lite"     -> (13, 32, 80, 8, 3),
    "skitter-lite"     -> (13, 48, 100, 9, 3),
    "livejournal-lite" -> (14, 48, 120, 10, 4),
    "orkut-lite"       -> (14, 64, 150, 10, 4)
  )

  /** Deterministic SNAP-substitute graph by name (see [[snapRecipes]]). */
  def snapLite(spark: SparkSession, name: String): DataFrame = {
    val (scale, ef, comms, csize, overlap) = snapRecipes.getOrElse(
      name,
      throw new IllegalArgumentException(
        s"unknown graph '$name'; known: ${snapRecipes.keys.toSeq.sorted.mkString(", ")}")
    )
    val seed = name.hashCode.toLong & 0xFFFF
    val core = rmatEdges(spark, scale, ef, seed)
    // plant communities on the rMAT id range so they overlap organic edges
    val planted = plantedCliques(spark, base = 1L << (scale - 2), comms, csize, overlap)
    core.unionByName(planted)
  }
}
