"""The four benchmark workloads: their requests, output checks and digests.

Every workload is closed-loop: one client sends one request at a time and
waits for the answer.  The seed only permutes the order of the requests;
the set of inputs, and therefore the documents and their digest, is fixed.

A workload splits the handling of one answer in three steps:

``call``    the timed request into the public ``uda`` entry points;
``record``  a cheap untimed step right after the call that keeps what the
            checks need, without calling into ``uda`` (so that caches stay
            exactly as the requests left them);
``check``   after the last request: the output checks, which may call the
            oracle, and the canonical documents that feed the digest.

A request fails if it raises, returns a nonzero CLI exit code, or fails its
output check.  The digest is the SHA-256 of the sorted per-document SHA-256s,
so that the request order does not matter; it must equal the reference
recorded from the commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
from array import array
import hashlib
import io
import json
import random
import re

import uda.cli
import uda.glaction
from uda.glaction import StarOperator
from uda.partitions import Partition, partitions_in_rectangle

_EXPS = re.compile(r'"exps": \{([^}]*)\}')
_VAR = re.compile(r'"[ceh](\d+)": (\d+)')

# SHA-256 of the sorted document digests, recorded once with the commit that
# introduced the benchmark.  A faster program must reproduce them exactly.
REFERENCE_DIGESTS = {
    "quotient-matrices":
        "38f5ea59cee25dcc7474626bc858b898206edaedadae1389f5c4beaa7824c964",
    "quotient-genfun":
        "d3042066ea014f06b01664eb5367b1dae8eead0e18f54216e17bf04ae49a18a9",
    "oracle-sweep":
        "67fef5ab62874c469db5fc7bbe3c7c5fcec6c633659964f7afbbc6d2ce8dcf8e",
    "schur-det":
        "5981f7e74e02fcc368e9a9b750ceb9adadf54127a8ad281dd694fa399c95c282",
}


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``uda.cli.main`` in-process and capture the document it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = uda.cli.main(argv)
    return rc, buf.getvalue()


def lam_arg(lam: Partition) -> str:
    return ",".join(map(str, lam.parts)) or "0"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def oracle(i: int, j: int, lam: Partition, r: int, n: int) -> dict:
    """The oracle's Schur coordinates as {parts: canonical coefficient text}."""
    coords = uda.glaction.star_oracle_coords(StarOperator.adapted(i, j), lam, r, n)
    return {mu.parts: str(c) for mu, c in coords.items()}


class Workload:
    """Base class: a fixed request list, permuted by the seed."""

    name = ""

    def __init__(self, seed: int):
        self.requests = self.build()
        order = array("l", range(len(self.requests)))
        random.Random(seed).shuffle(order)
        self.order = self.fix_order(order)

    def build(self):
        """The requests: a sequence indexed by request number."""
        raise NotImplementedError

    def fix_order(self, order):
        return order

    def call(self, req):
        raise NotImplementedError

    def record(self, req, out):
        return out

    def check(self, kept: list) -> tuple[dict[int, str], list[str]]:
        """Check every kept answer (None for a request that raised).

        Returns the failures ({request index: reason}) and the canonical
        documents of all requests that answered.
        """
        raise NotImplementedError


class CliWorkload(Workload):
    """Requests are argument lists for ``uda.cli.main``; answers are documents."""

    def call(self, req):
        return cli_call(req)

    def check(self, kept):
        failures, docs = {}, []
        for idx, out in enumerate(kept):
            if out is None:
                continue
            rc, doc = out
            docs.append(doc)
            if rc != 0:
                failures[idx] = f"exit code {rc}"
                continue
            try:
                reason = self.check_doc(self.requests[idx], doc)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"malformed document: {exc!r}"
            if reason:
                failures[idx] = reason
        return failures, docs

    def check_doc(self, req, doc: str) -> str | None:
        raise NotImplementedError


class QuotientMatrices(CliWorkload):
    """All 25 ``matrix`` documents at (2,5), then the bracket suite."""

    name = "quotient-matrices"
    r, n = 2, 5

    def build(self):
        reqs = [["matrix", "--r", str(self.r), "--n", str(self.n),
                 "--i", str(i), "--j", str(j), "--output", "json"]
                for i in range(self.n) for j in range(self.n)]
        reqs.append(["verify", "--suite", "bracket",
                     "--r", str(self.r), "--n", str(self.n)])
        return reqs

    def fix_order(self, order):
        # the bracket suite stays last, after every matrix document
        last = len(self.requests) - 1
        return [k for k in order if k != last] + [last]

    def check_doc(self, req, doc):
        if req[0] == "verify":
            return None if doc.endswith("OK: 256/256 checks passed\n") else (
                "bracket suite did not report OK: 256/256")
        d = json.loads(doc)
        i, j = d["i"], d["j"]
        cols: dict[tuple, dict] = {tuple(p): {} for p in d["basis"]}
        for cell in d["entries"]:
            cols[tuple(cell["col"])][tuple(cell["row"])] = cell["coeff"]
        if len(cols) != len(partitions_in_rectangle(self.r, self.n - self.r)):
            return f"basis has {len(cols)} elements"
        for parts, col in cols.items():
            if col != oracle(i, j, Partition(parts), self.r, self.n):
                return f"column {parts} of (i,j)=({i},{j}) differs from the oracle"
        return None


class QuotientGenfun(CliWorkload):
    """All 15 projected ``genfun`` documents at (2,6)."""

    name = "quotient-genfun"
    r, n = 2, 6

    def build(self):
        return [["genfun", "--r", str(self.r), "--n", str(self.n),
                 "--lambda", lam_arg(lam), "--output", "json"]
                for lam in partitions_in_rectangle(self.r, self.n - self.r)]

    def check_doc(self, req, doc):
        d = json.loads(doc)
        lam = Partition(d["lambda"])
        at: dict[tuple[int, int], dict] = {}
        for term in d["terms"]:
            at[(term["z"], -term["w"])] = {tuple(s["partition"]): s["coeff"]
                                           for s in term["schur"]}
        for i in range(self.n):
            for j in range(self.n):
                if at.pop((i, j), {}) != oracle(i, j, lam, self.r, self.n):
                    return f"coords_at({i},{j}) of {lam} differs from the oracle"
        if at:
            return f"terms outside the operator range: {sorted(at)}"
        return None


class OracleSweep(Workload):
    """``star_oracle_coords`` for every adapted (i, j) and every lambda at (6,12).

    Requests are made from their number on demand, and each image is kept
    as one small integer, so that the 133,056 requests and answers do not
    inflate the measured heap: 0 for an empty image, 2k+1 for +D_mu and 2k+2
    for -D_mu with k the index of mu, -1 for any other shape.
    """

    name = "oracle-sweep"
    r, n = 6, 12

    def build(self):
        self.basis = partitions_in_rectangle(self.r, self.n - self.r)
        self.index = {lam: k for k, lam in enumerate(self.basis)}
        self.ops = [StarOperator.adapted(i, j)
                    for i in range(self.n) for j in range(self.n)]
        return self

    def __len__(self):
        return len(self.ops) * len(self.basis)

    def __getitem__(self, idx):
        """Request ``idx``: (i, j, operator, lambda), lambda varying fastest."""
        op, k = divmod(idx, len(self.basis))
        i, j = divmod(op, self.n)
        return i, j, self.ops[op], self.basis[k]

    def call(self, req):
        _, _, op, lam = req
        return uda.glaction.star_oracle_coords(op, lam, self.r, self.n)

    def record(self, req, out):
        if not out:
            return 0
        if len(out) > 1:
            return -1
        (mu, coeff), = out.items()
        k = self.index.get(mu)
        sign = coeff.terms.get(()) if len(coeff.terms) == 1 else None
        if k is None or sign not in (1, -1):
            return -1
        return 2 * k + (1 if sign == 1 else 2)

    def check(self, kept):
        failures, docs = {}, []
        for idx, code in enumerate(kept):
            i, j, _, lam = self.requests[idx]
            if code is None:
                continue
            if code < 0:
                failures[idx] = f"image of {lam} under ({i},{j}) is not 0 or +-D_mu"
                docs.append(f"{i} {j} {lam} -> ?")
            elif code == 0:
                docs.append(f"{i} {j} {lam} -> 0")
            else:
                mu = self.basis[(code - 1) // 2]
                docs.append(f"{i} {j} {lam} -> {'+' if code % 2 else '-'}{mu}")
        return failures, docs


class SchurDet(CliWorkload):
    """``giambelli`` JSON documents for all 126 lambda at (4,9).

    The documents are large (8 MB in total), so ``record`` keeps only
    their digest and the result of a structural check: the document names
    the requested partition and its polynomial is homogeneous of weight
    |lambda| (c_i and h_i have weight i).  The digest carries the rest.
    Both checks scan the text rather than parse it, which would build a
    transient tree several times the document's size inside the measured
    heap.
    """

    name = "schur-det"
    r, n = 4, 9

    def build(self):
        self.sizes = []
        reqs = []
        for lam in partitions_in_rectangle(self.r, self.n - self.r):
            self.sizes.append(lam.size())
            reqs.append(["giambelli", "--r", str(self.r), "--n", str(self.n),
                         "--lambda", lam_arg(lam), "--output", "json"])
        return reqs

    def fix_order(self, order):
        # Ascending |lambda|, the seed permuting partitions of equal size.
        # Every determinant stays cached, so the peak heap is the cache plus
        # the transient of the document rendered at that moment; in a fully
        # random order that peak moved with the seed (51-66 MB at (4,10)).
        return sorted(order, key=self.sizes.__getitem__)

    def record(self, req, out):
        rc, doc = out
        if rc != 0:
            return rc, None, ""
        try:
            reason = self.check_doc(req, doc)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"malformed document: {exc!r}"
        return rc, reason, sha(doc)

    def check_doc(self, req, doc):
        lam = Partition(int(p) for p in req[req.index("--lambda") + 1].split(","))
        head = json.loads(doc[:doc.index('"value"')].rstrip().rstrip(",") + "}")
        if head["partition"] != list(lam.parts):
            return f"document names {head['partition']}, not {list(lam.parts)}"
        terms = 0
        for exps in _EXPS.finditer(doc):
            weight = sum(int(idx) * int(e) for idx, e in _VAR.findall(exps[1]))
            if weight != lam.size():
                return f"a term has weight {weight}, not {lam.size()}"
            terms += 1
        return None if terms else "zero Schur determinant"

    def check(self, kept):
        failures, docs = {}, []
        for idx, out in enumerate(kept):
            if out is None:
                continue
            rc, reason, digest = out
            docs.append(digest)
            if rc != 0:
                failures[idx] = f"exit code {rc}"
            elif reason:
                failures[idx] = reason
        return failures, docs


WORKLOADS = {w.name: w for w in (QuotientMatrices, QuotientGenfun,
                                 OracleSweep, SchurDet)}


def digest(docs: list[str]) -> str:
    """Order-free digest: SHA-256 over the sorted per-document SHA-256s.

    schur-det hands over document digests already; hashing them again keeps
    one rule for every workload.
    """
    return sha("\n".join(sorted(sha(d) for d in docs)))
