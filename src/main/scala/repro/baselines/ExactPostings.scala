package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cloudstore.{CloudStorage, RangeReq}
import repro.core.{BinPointer, BlockWriter}

/** Exact per-word postings lists persisted in compacted block blobs —
  * the storage substrate of every *non-statistical* baseline (skip list,
  * B-tree, Elasticsearch-like). The paper compresses all baselines'
  * postings identically to AIRPHANT's (§V-A0b), which the shared
  * [[BlockWriter]] reproduces.
  */
object ExactPostings {

  /** @param words     sorted dictionary
    * @param pointers  word → its exact postings list's bytes
    * @param blockBlobs block id → blob name (string table)
    * @param docBlobs  posting blobId → document blob name
    */
  final case class Built(
      words: Array[String],
      pointers: Map[String, BinPointer],
      blockBlobs: Array[String],
      docBlobs: Array[String],
  ) {
    def bytesOf(store: CloudStorage): Long =
      blockBlobs.map(store.size).sum

    /** The read of one postings list. */
    def rangeReq(p: BinPointer): RangeReq = RangeReq(blockBlobs(p.block), p.offset.toLong, p.length)
  }

  /** Aggregate exact postings per word and write them as block blobs under
    * `prefix` in the registered `bucket`.
    */
  def build(spark: SparkSession, docs: DataFrame, bucket: String, prefix: String,
            blockTargetBytes: Int = 1 << 20): Built = {
    val (rows, docBlobs) = BlockWriter.postingRows(spark, docs)

    val approxBytes = docs.count() * 40L // rough: distinct words/doc * posting bytes
    val numBlocks = math.max(1, math.min(128,
      math.ceil(approxBytes.toDouble / blockTargetBytes).toInt))

    val (pointers, blockBlobs) = BlockWriter.write(BlockWriter.lists(rows, "word"), Seq("word"),
      numBlocks, bucket, s"$prefix/postings")(_.getString(0))
    Built(pointers.map(_._1).sorted, pointers.toMap, blockBlobs, docBlobs)
  }

  /** Index of the last of the sorted `terms` that is <= `word` (0 if
    * `word` precedes them all): the dictionary descent step of the skip
    * list and the B-tree.
    */
  def floorIndex(terms: IndexedSeq[String], word: String): Int = {
    if (word < terms(0)) return 0
    var lo = 0; var hi = terms.size - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (terms(mid) <= word) lo = mid else hi = mid - 1
    }
    lo
  }
}
