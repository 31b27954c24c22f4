package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Spans recorded by the benchmark around its own calls into the program's
  * layers (nothing inside the program is instrumented). A span has a name,
  * start and end (ns since the tracer started), its parent span and the
  * top-level span it belongs to. Spans stay in memory until [[toJson]].
  * When disabled, [[span]] only runs its body.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val origin = System.nanoTime()
  private val done = ArrayBuffer.empty[Span]
  private var open: List[(Int, Int)] = Nil // (span id, root id), innermost first
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.map(_._1).getOrElse(-1)
      val root = open.headOption.map(_._2).getOrElse(id)
      open = (id, root) :: open
      val t0 = System.nanoTime()
      try body
      finally {
        done += Span(id, parent, root, name, t0 - origin, System.nanoTime() - origin)
        open = open.tail
      }
    }

  def spans: Seq[Span] = done.sortBy(_.id).toSeq

  def toJson: String =
    spans
      .map { s =>
        Json.obj(
          "id" -> s.id, "parent" -> s.parent, "root" -> s.root, "name" -> s.name,
          "start_ns" -> s.startNs, "end_ns" -> s.endNs
        )
      }
      .mkString("[\n", ",\n", "\n]\n")
}

object Tracer {
  final case class Span(id: Int, parent: Int, root: Int, name: String, startNs: Long, endNs: Long)
}

/** Minimal JSON rendering for the benchmark's flat records. */
object Json {

  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }

  def value(v: Any): String = v match {
    case s: String  => str(s)
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Int     => n.toString
    case n: Long    => n.toString
    case s: Seq[_]  => s.map(value).mkString("[", ", ", "]")
    case Raw(js)    => js
    case other      => str(other.toString)
  }

  /** Already-rendered JSON. */
  final case class Raw(js: String)

  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => str(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
