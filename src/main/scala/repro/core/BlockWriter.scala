package repro.core

import java.io.ByteArrayOutputStream

import scala.reflect.ClassTag

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.cloudstore.CloudStorage
import repro.corpus.Parsers

/** The write path the Builder and the exact-postings baselines share: the
  * paper compresses every baseline's postings identically to AIRPHANT's
  * (§V-A0b). Postings are grouped per key into sorted lists, encoded with
  * [[PostingsCodec]] and compacted into block blobs (§IV-C); each key gets
  * a [[BinPointer]] to its list.
  */
object BlockWriter {

  /** One posting row per (document, distinct word): columns blobId, offset,
    * length, word. Returned with the sorted document-blob string table that
    * blobId indexes (§IV-C: blob names are compressed to integer keys).
    */
  def postingRows(spark: SparkSession, docs: DataFrame): (DataFrame, Array[String]) = {
    import spark.implicits._
    val docBlobs = docs.select($"blob").distinct().as[String].collect().sorted
    val bcBlobIdx = spark.sparkContext.broadcast(docBlobs.zipWithIndex.toMap)
    val blobId = udf((b: String) => bcBlobIdx.value(b))
    (Parsers.wordRows(docs, distinct = true, blobId($"blob") as "blobId", $"offset", $"length"),
     docBlobs)
  }

  /** One sorted postings list per value of the `keys` columns of `rows`
    * (which also hold blobId, offset and length): the keys, then `postings`.
    */
  def lists(rows: DataFrame, keys: String*): DataFrame =
    rows.groupBy(keys.map(col): _*)
      .agg(sort_array(collect_set(struct(col("blobId"), col("offset"), col("length")))) as "postings")

  /** Write the postings `lists` (as made by [[lists]] over `keys`), in key
    * order, into at most `numBlocks` blobs named `blobPrefix-<partition>`.
    * Each non-empty partition writes its one blob from the executor, so
    * only the pointers are collected.
    *
    * @param key reads a key back from a row of `lists`
    * @return each key's pointer, with block ids numbered densely over the
    *         blobs actually written, and those blobs' names by block id
    */
  def write[K: ClassTag](lists: DataFrame, keys: Seq[String], numBlocks: Int, bucket: String,
                         blobPrefix: String)(key: Row => K): (Array[(K, BinPointer)], Array[String]) = {
    val keyCols = keys.map(col)
    val nKeys = keys.size
    val raw = lists
      .repartitionByRange(numBlocks, keyCols: _*)
      .sortWithinPartitions(keyCols: _*)
      .rdd
      .mapPartitionsWithIndex { (pid, it) =>
        val buf = new ByteArrayOutputStream()
        val out = Vector.newBuilder[(K, BinPointer)]
        it.foreach { row =>
          val ps = row.getSeq[Row](nKeys)
            .map(r => Posting(r.getInt(0), r.getLong(1), r.getInt(2)))
            .toIndexedSeq
          val bytes = PostingsCodec.encode(ps)
          out += ((key(row), BinPointer(pid, buf.size(), bytes.length))) // block = partition
          buf.write(bytes, 0, bytes.length)
        }
        val res = out.result()
        if (res.nonEmpty) CloudStorage.named(bucket).put(s"$blobPrefix-$pid", buf.toByteArray)
        res.iterator
      }
      .collect()
    denseBlocks(raw, blobPrefix)
  }

  /** Number the written blocks densely, in partition order: a partition
    * that wrote nothing gets no block id and no blob name. `raw`'s pointers
    * carry their partition as the block id.
    */
  private[core] def denseBlocks[K](raw: Array[(K, BinPointer)],
                                   blobPrefix: String): (Array[(K, BinPointer)], Array[String]) = {
    val pids = raw.map(_._2.block).distinct.sorted
    val dense = pids.zipWithIndex.toMap
    (raw.map { case (k, p) => k -> p.copy(block = dense(p.block)) }, pids.map(pid => s"$blobPrefix-$pid"))
  }
}
