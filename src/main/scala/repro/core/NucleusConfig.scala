package repro.core

import repro.graph.Orientation

/** Configuration of ARB-NUCLEUS-DECOMP's practical optimizations (§5–6.2). */
final case class NucleusConfig(
    scheme: TableScheme = TwoLevelArray,
    contiguous: Boolean = true,
    inverse: InverseMapMethod = StoredPointers,
    relabel: Boolean = true,
    aggregation: UpdateAggregator.Kind = UpdateAggregator.ListBufferKind,
    contraction: Boolean = false
) {
  /** Always degeneracy; kept for `perfbench/.../Layers.scala`, which reads it. */
  def order: Orientation.Order = Orientation.Degeneracy

  def label: String = {
    val parts = Seq(
      scheme.label,
      if (scheme == OneLevel) "" else if (contiguous) "contig" else "non-contig",
      if (scheme == OneLevel) "" else inverse.label,
      if (relabel) "relabel" else "no-relabel",
      aggregation.label,
      if (contraction) "contract" else ""
    ).filter(_.nonEmpty)
    parts.mkString("+")
  }
}

object NucleusConfig {

  /** The paper's most-unoptimized baseline (§6.2): one-level T, no
    * relabeling, simple-array aggregation, no contraction.
    */
  val unoptimized: NucleusConfig = NucleusConfig(
    scheme = OneLevel,
    contiguous = true,
    inverse = BinarySearch,
    relabel = false,
    aggregation = UpdateAggregator.SimpleArrayKind,
    contraction = false
  )

  /** The paper's overall-optimal settings (§6.2 conclusion): two-level T
    * with contiguous space and stored pointers; for (2,3) hash-table
    * aggregation plus graph contraction and no relabeling; otherwise
    * list-buffer aggregation plus relabeling. Falls back to the smallest
    * feasible multi-level table when two-level keys do not fit (large r).
    * A 4-thread sweep on orkut-lite (2,3) gave relabeling + list buffer the
    * lowest median, but not by more than its IQR, so this pick stands
    * (ROADMAP item 4, `BENCH_8.json`).
    */
  def optimal(r: Int, s: Int, n: Int): NucleusConfig = {
    val base =
      if (r == 2 && s == 3)
        NucleusConfig(relabel = false, aggregation = UpdateAggregator.HashTableKind, contraction = true)
      else
        NucleusConfig(relabel = true, aggregation = UpdateAggregator.ListBufferKind)
    base.copy(scheme = smallestFeasibleScheme(r, n))
  }

  /** Prefers two-level; otherwise the smallest ℓ-multi-level whose last
    * level keys fit in 64 bits (mirrors the paper's use of 3-multi-level
    * for large r).
    */
  def smallestFeasibleScheme(r: Int, n: Int): TableScheme = {
    if (CliqueTable.feasible(TwoLevelArray, r, n)) TwoLevelArray
    else {
      var l = 3
      while (l <= r && !CliqueTable.feasible(MultiLevel(l), r, n)) l += 1
      require(l <= r, s"no feasible table scheme for r=$r, n=$n")
      MultiLevel(l)
    }
  }
}
