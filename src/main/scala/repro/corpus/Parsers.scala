package repro.corpus

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Corpus→document and document→word parsers (§III-C: both are
  * user-selectable; these are the defaults the evaluation uses).
  *
  * The document→word parser mirrors Lucene's `WhitespaceAnalyzer` /
  * Elasticsearch's whitespace analyzer, which the paper feeds all
  * baselines through: split on runs of whitespace, keep tokens verbatim
  * (no lowercasing, no stemming). It has a JVM form ([[words]], the exact
  * filter's) and a Spark form ([[wordRows]], the index builders'); both
  * split on [[Separator]] and drop empty tokens, and they must agree, or
  * the exact filter drops documents the index returned.
  */
object Parsers {

  /** Word separator: a run of Java-regex whitespace (`[ \t\n\x0B\f\r]`).
    * Spark's `split` applies the same `java.util.regex` pattern.
    */
  private val Separator = "\\s+"

  /** Extract the searchable words of one document, in order. */
  def words(text: String): Array[String] =
    text.split(Separator).filter(_.nonEmpty)

  /** Distinct words of one document (the |W_i| set of §IV-A). */
  def distinctWords(text: String): Set[String] = words(text).toSet

  /** Exact-match predicate used for the final false-positive filter. */
  def containsWord(text: String, word: String): Boolean =
    distinctWords(text).contains(word)

  /** Spark form of [[words]]: the `keep` columns of `docs` with one row per
    * word of its `text` column, in column `word`; with `distinct`, each word
    * once per document.
    */
  def wordRows(docs: DataFrame, distinct: Boolean, keep: Column*): DataFrame = {
    val tokens = split(col("text"), Separator)
    docs.select(keep :+ (explode(if (distinct) array_distinct(tokens) else tokens) as "word"): _*)
      .filter(length(col("word")) > 0)
  }

  /** Default corpus→document parser: one blob holds newline-delimited
    * documents. Returns each document's (offset, length, text); lengths
    * exclude the delimiter so a range read returns exactly the text.
    */
  def splitBlob(bytes: Array[Byte]): Seq[(Long, Int, String)] = {
    val out = Seq.newBuilder[(Long, Int, String)]
    var start = 0
    var i = 0
    while (i <= bytes.length) {
      if (i == bytes.length || bytes(i) == '\n') {
        if (i > start) {
          out += ((start.toLong, i - start, new String(bytes, start, i - start, "UTF-8")))
        }
        start = i + 1
      }
      i += 1
    }
    out.result()
  }
}
