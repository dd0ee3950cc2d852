"""Shared fixtures: small compiled programs reused across test modules."""

import threading

import pytest

from repro.core import compile_program, profile_program, single_core_layout

# The paper's §2 keyword-counting example, sized down for fast tests.
KEYWORD_SOURCE = """
class Text {
    flag process;
    flag submit;
    String data;
    int result;
    Text(String s) { this.data = s; this.result = 0; }
    void work() {
        String[] words = this.data.split();
        int n = 0;
        for (int i = 0; i < words.length; i++) {
            if (words[i].equals("bamboo")) n = n + 1;
        }
        this.result = n;
    }
}

class Results {
    flag finished;
    int total;
    int expected;
    int merged;
    Results(int e) { this.expected = e; this.total = 0; this.merged = 0; }
    boolean mergeResult(Text t) {
        this.total = this.total + t.result;
        this.merged = this.merged + 1;
        return this.merged == this.expected;
    }
}

class SeqMain {
    SeqMain() { }
    void run(String[] args) {
        int sections = Integer.parseInt(args[0]);
        int total = 0;
        for (int s = 0; s < sections; s++) {
            String data = "bamboo alpha bamboo beta gamma";
            String[] words = data.split();
            for (int i = 0; i < words.length; i++) {
                if (words[i].equals("bamboo")) total = total + 1;
            }
        }
        System.printString("total=" + total);
    }
}

task startup(StartupObject s in initialstate) {
    int sections = Integer.parseInt(s.args[0]);
    for (int i = 0; i < sections; i++) {
        Text tp = new Text("bamboo alpha bamboo beta gamma"){process := true};
    }
    Results rp = new Results(sections){finished := false};
    taskexit(s: initialstate := false);
}

task processText(Text tp in process) {
    tp.work();
    taskexit(tp: process := false, submit := true);
}

task mergeIntermediateResult(Results rp in !finished, Text tp in submit) {
    boolean allprocessed = rp.mergeResult(tp);
    if (allprocessed) {
        System.printString("total=" + rp.total);
        taskexit(rp: finished := true; tp: submit := false);
    }
    taskexit(tp: submit := false);
}
"""

# A program exercising tags: a save pipeline pairing Drawing/Image objects.
TAGGED_SOURCE = """
class Drawing {
    flag dirty;
    flag saving;
    flag saved;
    int id;
    Drawing(int id) { this.id = id; }
}

class Image {
    flag uncompressed;
    flag compressed;
    int size;
    Image(int size) { this.size = size; }
}

task startup(StartupObject s in initialstate) {
    int count = Integer.parseInt(s.args[0]);
    for (int i = 0; i < count; i++) {
        Drawing d = new Drawing(i){dirty := true};
    }
    taskexit(s: initialstate := false);
}

task startsave(Drawing d in dirty) {
    tag t = new tag(saveop);
    Image img = new Image(d.id * 100 + 7){uncompressed := true, add t};
    taskexit(d: dirty := false, saving := true, add t);
}

task compress(Image img in uncompressed) {
    img.size = img.size / 2;
    taskexit(img: uncompressed := false, compressed := true);
}

task finishsave(Drawing d in saving with saveop t,
                Image img in compressed with saveop t) {
    taskexit(d: saving := false, saved := true; img: compressed := false);
}
"""


# One object satisfies two tasks' guards: every Item starts `fresh`, which
# both peek and take accept. Whichever runs first clears the flag, so the
# other's queued invocation is stale when dispatched and its object is
# re-routed by its current state (`done`, a second delivery to tally).
CONTESTED_SOURCE = """
class Item {
    flag fresh;
    flag done;
    int v;
    Item(int v) { this.v = v; }
}

class Tally {
    flag open;
    int n;
    Tally() { this.n = 0; }
}

task startup(StartupObject s in initialstate) {
    int count = Integer.parseInt(s.args[0]);
    for (int i = 0; i < count; i++) {
        Item it = new Item(i){fresh := true};
    }
    Tally t = new Tally(){open := true};
    taskexit(s: initialstate := false);
}

task peek(Item it in fresh) {
    it.v = it.v * 2;
    taskexit(it: fresh := false, done := true);
}

task take(Item it in fresh) {
    it.v = it.v + 1;
    taskexit(it: fresh := false, done := true);
}

task tally(Tally t in open, Item it in done) {
    t.n = t.n + 1;
    System.printString("tally " + t.n);
    taskexit(it: done := false);
}
"""


@pytest.fixture(scope="session")
def keyword_compiled():
    return compile_program(KEYWORD_SOURCE, "keyword-test")


@pytest.fixture(scope="session")
def keyword_profile(keyword_compiled):
    return profile_program(keyword_compiled, ["6"])


@pytest.fixture(scope="session")
def tagged_compiled():
    return compile_program(TAGGED_SOURCE, "tagged-test")


@pytest.fixture(scope="session")
def contested_context():
    compiled = compile_program(CONTESTED_SOURCE, "contested-test")
    return compiled, profile_program(compiled, ["4"])


@pytest.fixture
def synthesize_gate(monkeypatch):
    """Holds every served synthesize execution until the returned event is
    set, so a request is deterministically still in flight while a test
    probes the daemon; other ops run unheld. The daemon runs in process
    and looks ``execute`` up at call time."""
    from repro.serve import server

    gate = threading.Event()
    execute = server.execute

    def held(request, *args, **kwargs):
        if request.op == "synthesize":
            gate.wait(timeout=60)
        return execute(request, *args, **kwargs)

    monkeypatch.setattr(server, "execute", held)
    yield gate
    gate.set()


def compile_snippet(body: str):
    """Compiles a snippet that only needs a startup task around it."""
    return compile_program(body)
