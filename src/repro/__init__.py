"""repro — a reproduction of *Complete Completion using Types and Weights*
(Gvero, Kuncak, Kuraj, Piskac; PLDI 2013), the InSynth system.

Public API quick tour::

    from repro import (Declaration, DeclKind, Environment, Synthesizer,
                       WeightPolicy, parse_type)

    env = Environment([
        Declaration("name", parse_type("String"), DeclKind.LOCAL),
        Declaration("java.io.FileInputStream.new",
                    parse_type("String -> FileInputStream"),
                    DeclKind.IMPORTED, frequency=120),
    ])
    result = Synthesizer(env).synthesize(parse_type("FileInputStream"))
    for snippet in result.snippets:
        print(snippet.rank, snippet.code)

Packages:

* :mod:`repro.core` — succinct types, exploration, patterns, reconstruction,
  weights, subtyping (the paper's contribution);
* :mod:`repro.lang` — declaration-language frontend and snippet renderer;
* :mod:`repro.javamodel` — synthetic typed Java/Scala API model and program
  points;
* :mod:`repro.corpus` — corpus generation and frequency mining (§7.3);
* :mod:`repro.provers` — baseline intuitionistic provers (G4ip, inverse
  method) used in the Table 2 comparison;
* :mod:`repro.bench` — the 50-benchmark suite of Table 2 and its runner;
* :mod:`repro.engine` — the serving layer: a long-lived
  :class:`~repro.engine.CompletionEngine` with prepared scenes, an LRU
  result cache and an in-order batch query API.
"""

from repro.core import (Arrow, BaseType, Binder, Declaration, DeclKind,
                        Environment, LNFTerm, RenderSpec, RenderStyle,
                        Snippet, SubtypeGraph, SuccinctType, SynthesisConfig,
                        SynthesisResult, Synthesizer, Type, WeightPolicy,
                        arrow, base, declaration, erase_coercions, lnf,
                        sigma, synthesize)
from repro.engine import (CompletionEngine, EngineQuery, EngineResult,
                          PreparedScene)
from repro.lang.parser import parse_environment, parse_type
from repro.lang.printer import render_ranked, render_snippet

__version__ = "1.0.0"

__all__ = [
    "Arrow", "BaseType", "Binder", "Declaration", "DeclKind", "Environment",
    "LNFTerm", "RenderSpec", "RenderStyle", "Snippet", "SubtypeGraph",
    "SuccinctType", "SynthesisConfig", "SynthesisResult", "Synthesizer",
    "Type", "WeightPolicy", "arrow", "base", "declaration",
    "erase_coercions", "lnf", "sigma", "synthesize",
    "parse_environment", "parse_type", "render_ranked", "render_snippet",
    "CompletionEngine", "EngineQuery", "EngineResult", "PreparedScene",
    "__version__",
]
