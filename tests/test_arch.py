import pytest

from rmcfence import arch


def test_builtin_profiles_exist():
    assert set(arch.PROFILE_NAMES) == {"x86", "armv7", "armv8", "power"}
    assert arch.builtin_profile("x86").vis_exec_free
    assert not arch.builtin_profile("power").vis_exec_free


def test_unknown_profile():
    with pytest.raises(KeyError):
        arch.builtin_profile("mips")


@pytest.mark.parametrize("name", arch.PROFILE_NAMES)
def test_kinds_cutting_nests_on_every_profile(name):
    # push => vis => exec => exec-from-read, and every kind cuts exec-from-read
    p = arch.builtin_profile(name)
    cutting = [set(p.kinds_cutting(level))
               for level in (arch.PUSH, arch.VIS, arch.EXEC, arch.EXEC_FROM_READ)]
    for stronger, weaker in zip(cutting, cutting[1:]):
        assert stronger <= weaker
    assert cutting[-1] == set(p.barriers)


def test_kind_capabilities():
    v8 = arch.builtin_profile("armv8")
    assert v8.kind("dmb").level == arch.PUSH
    assert v8.kind("dmb_ldst").level == arch.VIS
    assert v8.kind("dmb_ld").level == arch.EXEC_FROM_READ
    assert set(v8.modes) == {"acquire", "release"}
    power = arch.builtin_profile("power")
    assert power.kind("sync").level == arch.PUSH
    assert power.kind("lwsync").level == arch.VIS
    assert arch.builtin_profile("armv7").kind("dmb").level == arch.PUSH
    assert arch.builtin_profile("x86").kind("mfence").level == arch.PUSH


def test_kinds_cutting():
    power = arch.builtin_profile("power")
    assert [k.id for k in power.kinds_cutting(arch.PUSH)] == ["sync"]
    assert {k.id for k in power.kinds_cutting(arch.VIS)} == {"sync", "lwsync"}
    v8 = arch.builtin_profile("armv8")
    assert [k.id for k in v8.kinds_cutting(arch.EXEC)] == ["dmb", "dmb_ldst"]
    assert [k.id for k in v8.kinds_cutting(arch.EXEC_FROM_READ)] == ["dmb", "dmb_ldst", "dmb_ld"]


def test_default_costs():
    table, warnings = arch.load_costs(arch.builtin_profile("power"))
    assert not warnings
    assert table.kind("sync") == 80
    assert table.kind("lwsync") == 45
    assert table.dep("data_existing") == 1
    assert table.loop_factor == 4


def test_cost_overrides_and_comments():
    table, _ = arch.load_costs(
        arch.builtin_profile("armv8"),
        text="dmb = 99  # pricier\n\nacquire=7\nloop_factor = 2\n",
    )
    assert table.kind("dmb") == 99
    assert table.mode("acquire") == 7
    assert table.loop_factor == 2
    assert table.kind("dmb_ld") == 35  # untouched default


def test_cost_other_profile_keys_ignored():
    table, _ = arch.load_costs(arch.builtin_profile("armv7"), text="lwsync = 7\n")
    assert "lwsync" not in table.kind_costs


def test_cost_errors():
    armv7 = arch.builtin_profile("armv7")
    with pytest.raises(arch.CostConfigError, match="unknown cost key"):
        arch.load_costs(armv7, text="hammer = 3\n")
    with pytest.raises(arch.CostConfigError, match=">= 1"):
        arch.load_costs(armv7, text="dmb = 0\n")
    with pytest.raises(arch.CostConfigError, match="not an integer"):
        arch.load_costs(armv7, text="dmb = cheap\n")
    with pytest.raises(arch.CostConfigError, match="expected"):
        arch.load_costs(armv7, text="dmb 3\n")


def test_cost_hierarchy_warning():
    _, warnings = arch.load_costs(
        arch.builtin_profile("power"), text="sync = 10\n"  # push cheaper than vis
    )
    assert warnings


def test_cost_dep_warning():
    _, warnings = arch.load_costs(
        arch.builtin_profile("armv7"), text="ctrl_synth = 200\n"
    )
    assert warnings
