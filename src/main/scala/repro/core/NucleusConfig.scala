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

  /** The optimal settings, one configuration for every (r,s): two-level T
    * with contiguous space and stored pointers (§6.2), relabeling,
    * list-buffer aggregation and graph contraction. `decompose` applies
    * both only off the s-clique rows, so at s > r + 1 here (contraction at
    * r = 2 only): at s = r + 1 UPDATE reads rows and applies a decrement
    * log instead (DESIGN.md substitution 12). Falls back to
    * the smallest feasible multi-level table when two-level keys do not
    * fit (large r). The paper picks no relabeling + hash table for (2,3);
    * on 4 threads that ran within noise of this setting, so it is an
    * ablation only (DESIGN.md).
    */
  def optimal(r: Int, s: Int, n: Int): NucleusConfig =
    NucleusConfig(scheme = smallestFeasibleScheme(r, n), contraction = true)

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
