package repro.perfbench

import scala.collection.mutable

import org.apache.spark.sql.DataFrame

import repro.core.BoolQuery
import repro.corpus.Doc

/** Exact answers computed without the index: a plain inverted map built
  * from the corpus frame that `CorpusWriter.write` returns. A document is
  * identified by `(blob, offset)`, packed into one Long.
  */
final class ExactIndex(blobs: Array[String], rows: Array[(Int, Long, String)]) {
  private val blobIdx: Map[String, Int] = blobs.zipWithIndex.toMap
  private val texts = new mutable.LongMap[String](rows.length * 2)
  private val posting: Map[String, Array[Long]] = {
    val m = mutable.HashMap.empty[String, mutable.ArrayBuilder.ofLong]
    rows.foreach { case (b, off, text) =>
      val k = pack(b, off)
      texts.update(k, text)
      text.split("\\s+").iterator.filter(_.nonEmpty).distinct.foreach { w =>
        m.getOrElseUpdate(w, new mutable.ArrayBuilder.ofLong) += k
      }
    }
    m.iterator.map { case (w, b) => w -> b.result().sorted }.toMap
  }

  private def pack(blob: Int, offset: Long): Long = (blob.toLong << 40) | offset

  /** Packed id of a document, or -1 for a blob the corpus does not have. */
  def key(blob: String, offset: Long): Long = blobIdx.get(blob) match {
    case Some(b) if offset >= 0 && offset < (1L << 40) => pack(b, offset)
    case _ => -1L
  }

  /** The realised vocabulary, sorted (the same list `Corpora.materialize` collects). */
  val vocab: Array[String] = posting.keys.toArray.sorted

  def docCount: Int = rows.length
  def df(word: String): Int = docs(word).length

  /** Sorted ids of the documents containing `word`. */
  def docs(word: String): Array[Long] = posting.getOrElse(word, Array.emptyLongArray)

  def text(key: Long): Option[String] = texts.get(key)

  /** Sorted ids of the documents matching a Boolean query, by set algebra. */
  def docs(q: BoolQuery): Array[Long] = q match {
    case BoolQuery.Term(w) => docs(w)
    case BoolQuery.And(qs) => qs.map(docs).reduce((a, b) => a.filter(java.util.Arrays.binarySearch(b, _) >= 0))
    case BoolQuery.Or(qs)  => qs.map(docs).reduce((a, b) => (a ++ b).distinct.sorted)
  }

  /** Why `got` is not exactly `expected` (as sets), or None. Every returned
    * document must also carry its true text.
    */
  def checkExact(got: Seq[Doc], expected: Array[Long]): Option[String] =
    checkDocs(got).orElse {
      val ks = got.map(d => key(d.ref.blob, d.ref.offset)).toArray.sorted
      if (ks.sameElements(expected)) None
      else Some(s"returned ${ks.length} documents, expected ${expected.length} " +
                s"(${ks.count(k => java.util.Arrays.binarySearch(expected, k) < 0)} not in the exact answer)")
    }

  /** Top-K rule: a subset of the exact answer of size min(K, |exact|). */
  def checkTopK(got: Seq[Doc], expected: Array[Long], k: Int): Option[String] =
    checkDocs(got).orElse {
      val ks = got.map(d => key(d.ref.blob, d.ref.offset))
      val want = math.min(k, expected.length)
      if (ks.distinct.size != ks.size) Some("duplicate documents in a top-K answer")
      else if (ks.size != want) Some(s"top-$k returned ${ks.size} documents, expected $want")
      else ks.find(java.util.Arrays.binarySearch(expected, _) < 0)
        .map(_ => "top-K answer holds a document outside the exact answer")
    }

  /** DataSourceV2 rule: the (word, doc_id) set equals the exact one, and each
    * row's text is the document's text.
    */
  def checkRows(got: Seq[(String, String, String)], words: Seq[String]): Option[String] = {
    val seen = mutable.HashSet.empty[(String, Long)]
    val bad = got.iterator.map { case (w, docId, txt) =>
      val cut = docId.lastIndexOf(':')
      val k = if (cut <= 0) -1L else key(docId.substring(0, cut), docId.substring(cut + 1).toLongOption.getOrElse(-1L))
      if (k < 0) Some(s"unknown doc_id $docId")
      else if (!text(k).contains(txt)) Some(s"wrong text for $docId")
      else if (!seen.add((w, k))) Some(s"duplicate row ($w, $docId)")
      else None
    }.collectFirst { case Some(e) => e }
    bad.orElse {
      val expected = words.distinct.flatMap(w => docs(w).iterator.map(k => (w, k))).toSet
      if (seen == expected) None
      else Some(s"returned ${seen.size} (word, doc) rows, expected ${expected.size} " +
                s"(${seen.count(p => !expected.contains(p))} not in the exact answer)")
    }
  }

  private def checkDocs(got: Seq[Doc]): Option[String] =
    got.iterator.map { d =>
      val k = key(d.ref.blob, d.ref.offset)
      if (k < 0) Some(s"unknown document ${d.ref.docId}")
      else if (!text(k).contains(d.text)) Some(s"wrong text for ${d.ref.docId}")
      else None
    }.collectFirst { case Some(e) => e }
}

object ExactIndex {
  /** Collect the corpus frame (doc_id, blob, offset, length, text) to the driver. */
  def fromCorpus(docs: DataFrame): ExactIndex = {
    val rows = docs.select("blob", "offset", "text").collect()
    val blobs = rows.map(_.getString(0)).distinct.sorted
    val idx = blobs.zipWithIndex.toMap
    new ExactIndex(blobs, rows.map(r => (idx(r.getString(0)), r.getLong(1), r.getString(2))))
  }
}
