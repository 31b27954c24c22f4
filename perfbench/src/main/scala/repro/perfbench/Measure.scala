package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Named metrics of one run, in insertion order. */
final class Metrics {
  private val entries = mutable.LinkedHashMap.empty[String, (Double, String)]
  def put(name: String, value: Double, unit: String): Unit = entries(name) = (value, unit)
  def get(name: String): Option[Double] = entries.get(name).map(_._1)
  def toSeq: Seq[(String, Double, String)] = entries.toSeq.map { case (k, (v, u)) => (k, v, u) }
}

object Stats {
  /** Median as the mean of the two middle values for even sizes. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }
}

/** Process-wide JVM counters read before and after a measured call. */
final case class JvmCounters(gcMs: Long, allocBytes: Long, cpuNs: Long, steals: Long) {
  def -(o: JvmCounters): JvmCounters =
    JvmCounters(gcMs - o.gcMs, allocBytes - o.allocBytes, cpuNs - o.cpuNs, steals - o.steals)
}

object JvmCounters {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** Allocation is summed over live threads, so bytes allocated by a thread
    * that exits between two snapshots are missed; the decomposition's
    * worker pool outlives each measured call.
    */
  def snapshot(): JvmCounters =
    JvmCounters(
      gcMs = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum,
      allocBytes = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum,
      cpuNs = os.getProcessCpuTime,
      steals = repro.par.Par.pool.getStealCount
    )
}

/** Share of CPU time the hypervisor gave to other guests (the "steal"
  * column of /proc/stat) between two readings; 0 where not available.
  * Recorded next to the timings because it inflates them on shared hosts.
  */
object HostSteal {
  def read(): (Long, Long) =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      val cpu = try src.getLines().next() finally src.close()
      val f = cpu.trim.split("\\s+").drop(1).map(_.toLong)
      (if (f.length > 7) f(7) else 0L, f.sum)
    } catch { case scala.util.control.NonFatal(_) => (0L, 0L) }

  def share(before: (Long, Long), after: (Long, Long)): Double = {
    val total = after._2 - before._2
    if (total <= 0) 0.0 else (after._1 - before._1).toDouble / total
  }
}
