"""Architecture capability profiles and cost tables.

Barrier kinds are abstractions of the real instructions (mfence, sync,
lwsync, dmb, the dmb ld / dmb ld;dmb st pair), each tagged with the
strongest capability level it cuts; costs are abstract weights,
configurable per run.
"""

from collections import namedtuple

from .ir import parse_decimal

# Capability levels, weakest first. A barrier kind cuts the orderings of
# its level and of every level below it: push => vis => exec =>
# exec-from-read (exec orders any access against later ones,
# exec-from-read only a read that yields a value).
EXEC_FROM_READ, EXEC, VIS, PUSH = range(4)


# `level` is the strongest capability level the kind cuts.
BarrierKind = namedtuple("BarrierKind", "id level")


class ArchProfile(namedtuple("ArchProfile", "name barriers modes vis_exec_free",
                             defaults=((), False))):
    """`barriers` is a tuple of BarrierKind, `modes` a subset of
    ("acquire", "release")."""

    __slots__ = ()

    def kind(self, kind_id):
        for k in self.barriers:
            if k.id == kind_id:
                return k
        raise KeyError(kind_id)

    def kinds_cutting(self, level):
        """The kinds that cut `level`: those of that level or stronger."""
        return [k for k in self.barriers if k.level >= level]


_PROFILES = {
    "x86": ArchProfile("x86", barriers=(BarrierKind("mfence", PUSH),), vis_exec_free=True),
    "armv7": ArchProfile("armv7", barriers=(BarrierKind("dmb", PUSH),)),
    "armv8": ArchProfile(
        "armv8",
        barriers=(BarrierKind("dmb", PUSH), BarrierKind("dmb_ldst", VIS),
                  BarrierKind("dmb_ld", EXEC_FROM_READ)),
        modes=("acquire", "release"),
    ),
    "power": ArchProfile("power", barriers=(BarrierKind("sync", PUSH), BarrierKind("lwsync", VIS))),
}

PROFILE_NAMES = tuple(_PROFILES)


def builtin_profile(name):
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown architecture profile {name!r}") from None


DEFAULT_KIND_COSTS = {
    "mfence": 40,
    "sync": 80,
    "lwsync": 45,
    "dmb": 65,
    "dmb_ldst": 50,
    "dmb_ld": 35,
}
DEFAULT_MODE_COSTS = {"acquire": 25, "release": 25}
DEFAULT_DEP_COSTS = {"data_existing": 1, "ctrl_existing": 2, "ctrl_synth": 8}
DEFAULT_LOOP_FACTOR = 4


class CostTable(namedtuple("CostTable", "kind_costs mode_costs dep_costs loop_factor",
                           defaults=(DEFAULT_LOOP_FACTOR,))):
    __slots__ = ()

    def kind(self, kind_id):
        return self.kind_costs[kind_id]

    def mode(self, mode_id):
        return self.mode_costs[mode_id]

    def dep(self, dep_id):
        return self.dep_costs[dep_id]


class CostConfigError(Exception):
    pass


def load_costs(profile, path=None, text=None):
    """Defaults merged with `key = integer` overrides.

    Returns (CostTable, warnings). Warnings flag overrides that break the
    strength-cost ordering within the profile.
    """
    kinds = {k.id: DEFAULT_KIND_COSTS[k.id] for k in profile.barriers}
    modes = {m: DEFAULT_MODE_COSTS[m] for m in profile.modes}
    deps = dict(DEFAULT_DEP_COSTS)
    loop_factor = DEFAULT_LOOP_FACTOR

    if path is not None and text is None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise CostConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    if text:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CostConfigError(f"line {lineno}: expected 'key = integer'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            num = parse_decimal(val)
            if num is None:
                raise CostConfigError(f"line {lineno}: {val!r} is not an integer")
            if num < 1:
                raise CostConfigError(f"line {lineno}: cost for {key!r} must be >= 1")
            if key == "loop_factor":
                loop_factor = num
            elif key in kinds:
                kinds[key] = num
            elif key in modes:
                modes[key] = num
            elif key in deps:
                deps[key] = num
            elif key in DEFAULT_KIND_COSTS or key in DEFAULT_MODE_COSTS:
                pass  # cost for a kind this profile lacks: ignore
            else:
                raise CostConfigError(f"line {lineno}: unknown cost key {key!r}")

    table = CostTable(kinds, modes, deps, loop_factor)
    return table, _hierarchy_warnings(profile, table)


def _hierarchy_warnings(profile, table):
    """push-capable >= vis-capable >= exec-capable >= dependency costs."""
    names = {PUSH: "cuts_push", VIS: "cuts_vis", EXEC: "cuts_exec_any"}
    cheapest = {}  # level, exec-from-read counted as exec -> its cheapest kind's cost
    for k in profile.barriers:
        level, cost = max(k.level, EXEC), table.kind(k.id)
        cheapest[level] = min(cost, cheapest.get(level, cost))
    seq = sorted(cheapest.items(), reverse=True)
    warnings = []
    for (level_a, a), (level_b, b) in zip(seq, seq[1:]):
        if a < b:
            warnings.append(
                f"cost ordering violated: {names[level_a]} barrier cheaper than {names[level_b]}"
            )
    if seq and seq[-1][1] < max(table.dep_costs.values()):
        warnings.append("cost ordering violated: a barrier is cheaper than a dependency use")
    return warnings
