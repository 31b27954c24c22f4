package repro.core

/** Histogram core value → number of r-cliques of a result (a cheap result
  * fingerprint).
  */
object CoreHistogram {
  def of(res: NucleusResult): Map[Long, Long] = {
    val m = scala.collection.mutable.Map.empty[Long, Long]
    res.table.foreachOccupied { slot => m.updateWith(res.core(slot)) { c => Some(c.getOrElse(0L) + 1) } }
    m.toMap
  }
}
