"""The 50 benchmark scenes of Table 2.

Each :class:`BenchmarkSpec` reconstructs one java2s-derived benchmark: the
goal type at the cursor, the locals/literals the original example had in
scope, the imported packages (generalised imports, per §7.2), and the goal
expression that was removed — written in masked form, with ``<lit>``
standing for any literal constant.

Scenes are padded with seeded distractors to the paper's ``#Initial``
declaration count, so search-space sizes match row for row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.goldens import PaperRow, paper_row
from repro.core.errors import BenchmarkError
from repro.corpus.synthetic import default_frequencies
from repro.javamodel.jdk import shared_jdk
from repro.javamodel.scope import ProgramPoint, Scene

#: Import groups (package names of the modelled JDK).
IO_IMPORTS = ("java.io", "java.lang", "java.util", "java.nio.channels",
              "java.nio.charset")
NET_IMPORTS = IO_IMPORTS + ("java.net",)
AWT_IMPORTS = ("java.awt", "java.awt.event", "java.awt.image",
               "java.security", "javax.accessibility", "java.lang",
               "java.util", "java.io")
SWING_IMPORTS = AWT_IMPORTS + ("javax.swing", "javax.swing.text",
                               "javax.swing.table", "javax.swing.tree",
                               "javax.swing.border",
                               "java.awt.datatransfer")

#: Literals available at every program point (§7.2: goals are matched
#: modulo integer/string/boolean literals).
DEFAULT_LITERALS = (('"file.txt"', "String"), ("0", "int"),
                    ("true", "boolean"))


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table 2 benchmark scene definition."""

    number: int
    goal: str
    expected: tuple[str, ...]
    imports: tuple[str, ...]
    locals: tuple[tuple[str, str], ...] = ()
    literals: tuple[tuple[str, str], ...] = DEFAULT_LITERALS
    confusables: tuple[str, ...] = ()
    description: str = ""

    @property
    def row(self) -> PaperRow:
        return paper_row(self.number)

    @property
    def name(self) -> str:
        return self.row.name


def _spec(number: int, goal: str, expected, imports,
          locals_=(), description: str = "",
          literals=DEFAULT_LITERALS) -> BenchmarkSpec:
    if isinstance(expected, str):
        expected = (expected,)
    return BenchmarkSpec(
        number=number, goal=goal, expected=tuple(expected),
        imports=tuple(imports), locals=tuple(locals_),
        literals=tuple(literals), confusables=(goal,),
        description=description)


BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    _spec(1, "AWTPermission", "new AWTPermission(name)", AWT_IMPORTS,
          [("name", "String")], "grant a named AWT permission"),
    _spec(2, "BufferedInputStream",
          "new BufferedInputStream(new FileInputStream(fileName))",
          IO_IMPORTS, [("fileName", "String")],
          "buffer a file input stream"),
    _spec(3, "BufferedOutputStream",
          "new BufferedOutputStream(new FileOutputStream(fileName))",
          IO_IMPORTS, [("fileName", "String")],
          "buffer a file output stream"),
    _spec(4, "BufferedReader", "new BufferedReader(fileReader)",
          IO_IMPORTS, [("fileReader", "FileReader")],
          "wrap an existing FileReader"),
    _spec(5, "BufferedReader", "new BufferedReader(in)",
          IO_IMPORTS, [("in", "InputStreamReader")],
          "wrap an existing InputStreamReader"),
    _spec(6, "BufferedReader",
          "new BufferedReader(new InputStreamReader(in))",
          IO_IMPORTS, [("in", "InputStream")],
          "read a raw input stream line by line"),
    _spec(7, "ByteArrayInputStream",
          "new ByteArrayInputStream(buf, <lit>, <lit>)",
          IO_IMPORTS, [("buf", "ByteArray")],
          "stream a slice of a byte buffer"),
    _spec(8, "ByteArrayOutputStream", "new ByteArrayOutputStream(size)",
          IO_IMPORTS, [("size", "int")],
          "pre-sized in-memory output stream"),
    _spec(9, "DatagramSocket", "new DatagramSocket()", NET_IMPORTS, [],
          "open a UDP socket on any free port"),
    _spec(10, "DataInputStream",
          "new DataInputStream(new FileInputStream(fileName))",
          IO_IMPORTS, [("fileName", "String")],
          "read binary data from a file"),
    _spec(11, "DataOutputStream",
          "new DataOutputStream(new FileOutputStream(fileName))",
          IO_IMPORTS, [("fileName", "String")],
          "write binary data to a file"),
    _spec(12, "DefaultBoundedRangeModel", "new DefaultBoundedRangeModel()",
          SWING_IMPORTS, [], "default slider/scrollbar model"),
    _spec(13, "DisplayMode", "new DisplayMode(<lit>, <lit>, <lit>, <lit>)",
          AWT_IMPORTS, [], "request a display mode by literal geometry"),
    _spec(14, "FileInputStream", "new FileInputStream(fdObj)",
          IO_IMPORTS, [("fdObj", "FileDescriptor")],
          "stream from an existing file descriptor"),
    _spec(15, "FileInputStream", "new FileInputStream(name)",
          IO_IMPORTS, [("name", "String")], "open a file by name"),
    _spec(16, "FileOutputStream", "new FileOutputStream(file)",
          IO_IMPORTS, [("file", "File")], "write to a File object"),
    _spec(17, "FileReader", "new FileReader(file)",
          IO_IMPORTS, [("file", "File")], "character-read a File"),
    _spec(18, "File", "new File(name)",
          IO_IMPORTS, [("name", "String")], "wrap a path into a File"),
    _spec(19, "FileWriter", "new FileWriter(file)",
          IO_IMPORTS, [("file", "File")], "character-write a File"),
    _spec(20, "FileWriter", "new FileWriter(<lit>)",
          IO_IMPORTS, [], "write to a literal device path (LPT1)"),
    _spec(21, "GridBagConstraints", "new GridBagConstraints()",
          AWT_IMPORTS, [], "fresh layout constraints"),
    _spec(22, "GridBagLayout", "new GridBagLayout()",
          AWT_IMPORTS, [], "fresh grid-bag layout"),
    _spec(23, "GroupLayout", "new GroupLayout(host)",
          SWING_IMPORTS, [("host", "Container")],
          "group layout for an existing container"),
    _spec(24, "ImageIcon", "new ImageIcon(filename)",
          SWING_IMPORTS, [("filename", "String")],
          "load an icon from a file"),
    _spec(25, "InputStreamReader", "new InputStreamReader(in)",
          IO_IMPORTS, [("in", "InputStream")],
          "decode a raw input stream"),
    _spec(26, "JButton", "new JButton(text)",
          SWING_IMPORTS, [("text", "String")], "labelled button"),
    _spec(27, "JCheckBox", "new JCheckBox(text)",
          SWING_IMPORTS, [("text", "String")], "labelled check box"),
    _spec(28, "JFormattedTextField", "new JFormattedTextField(formatter)",
          SWING_IMPORTS, [("formatter", "DefaultFormatter")],
          "formatted field from a concrete formatter (needs subtyping)"),
    _spec(29, "JFormattedTextField", "new JFormattedTextField(formatter)",
          SWING_IMPORTS,
          [("formatter", "JFormattedTextField.AbstractFormatter")],
          "formatted field from an abstract formatter"),
    _spec(30, "JTable", "new JTable(data, columnNames)",
          SWING_IMPORTS,
          [("data", "ObjectArray2D"), ("columnNames", "ObjectArray")],
          "table over row data and column names"),
    _spec(31, "JTextArea", "new JTextArea(text)",
          SWING_IMPORTS, [("text", "String")], "text area with content"),
    _spec(32, "JToggleButton", "new JToggleButton(text)",
          SWING_IMPORTS, [("text", "String")], "labelled toggle button"),
    _spec(33, "JTree", "new JTree()", SWING_IMPORTS, [],
          "default tree widget"),
    _spec(34, "JViewport", "new JViewport()", SWING_IMPORTS, [],
          "fresh viewport"),
    _spec(35, "JWindow", "new JWindow()", SWING_IMPORTS, [],
          "undecorated window"),
    _spec(36, "LineNumberReader",
          "new LineNumberReader(new InputStreamReader(in))",
          IO_IMPORTS, [("in", "InputStream")],
          "line-counting reader over a raw stream"),
    _spec(37, "ObjectInputStream", "new ObjectInputStream(in)",
          IO_IMPORTS, [("in", "InputStream")], "deserialise from a stream"),
    _spec(38, "ObjectOutputStream", "new ObjectOutputStream(out)",
          IO_IMPORTS, [("out", "OutputStream")], "serialise to a stream"),
    _spec(39, "PipedReader", "new PipedReader(src)",
          IO_IMPORTS, [("src", "PipedWriter")],
          "reader end of an existing pipe"),
    _spec(40, "PipedWriter", "new PipedWriter()", IO_IMPORTS, [],
          "writer end of a fresh pipe"),
    _spec(41, "Point", ("new Point(x, y)", "new Point(y, x)"),
          AWT_IMPORTS, [("x", "int"), ("y", "int")],
          "point from two coordinates"),
    _spec(42, "PrintStream", "new PrintStream(out)",
          IO_IMPORTS, [("out", "OutputStream")],
          "printing wrapper over a stream"),
    _spec(43, "PrintWriter", "new PrintWriter(new BufferedWriter(writer))",
          IO_IMPORTS, [("writer", "Writer")],
          "buffered printing wrapper (java2s idiom)"),
    _spec(44, "SequenceInputStream", "new SequenceInputStream(s1, s2)",
          IO_IMPORTS, [("s1", "FileInputStream"), ("s2", "FileInputStream")],
          "concatenate two file streams (Figure 1)"),
    _spec(45, "ServerSocket", "new ServerSocket(port)",
          NET_IMPORTS, [("port", "int")], "listen on a port"),
    _spec(46, "StreamTokenizer", "new StreamTokenizer(fileReader)",
          IO_IMPORTS, [("fileReader", "FileReader")],
          "tokenise an existing reader"),
    _spec(47, "StringReader", "new StringReader(s)",
          IO_IMPORTS, [("s", "String")], "read from a string"),
    _spec(48, "Timer", "new Timer(value, act)",
          SWING_IMPORTS, [("value", "int"), ("act", "ActionListener")],
          "swing timer with delay and callback"),
    _spec(49, "TransferHandler", "new TransferHandler(property)",
          SWING_IMPORTS, [("property", "String")],
          "drag-and-drop handler for a property"),
    _spec(50, "URL", "new URL(spec)",
          NET_IMPORTS, [("spec", "String")], "parse a URL from a string"),
)


def benchmark_by_number(number: int) -> BenchmarkSpec:
    spec = BENCHMARKS[number - 1]
    if spec.number != number:
        raise BenchmarkError(f"benchmark table out of order at {number}")
    return spec


def benchmark_by_name(name: str) -> BenchmarkSpec:
    for spec in BENCHMARKS:
        if spec.name == name:
            return spec
    raise BenchmarkError(f"no benchmark named {name!r}")


def build_scene(spec: BenchmarkSpec,
                pad_to_initial: bool = True) -> Scene:
    """Materialise a benchmark spec into a synthesis-ready scene."""
    point = ProgramPoint(shared_jdk(), default_frequencies().as_mapping(),
                         name=spec.name)
    point.import_packages(*spec.imports)
    if pad_to_initial:
        base_count = (len(point._imports) + len(spec.locals)
                      + len(spec.literals))
        missing = spec.row.n_initial - base_count
        if missing > 0:
            point.add_distractors(missing, seed=spec.number,
                                  confusable_types=spec.confusables)
    for name, type_text in spec.locals:
        point.add_local(name, type_text)
    for code, type_text in spec.literals:
        point.add_literal(code, type_text)
    point.set_goal(spec.goal)
    scene = point.build()
    if scene.goal is None:
        raise BenchmarkError(f"benchmark {spec.number} has no goal")
    return scene
