"""The public surface: each subcommand's options and the package's exports.

An option or an export that is added or removed fails here, so a change to
the surface is made on purpose and the pins below are updated with it."""

import argparse

import pytest

import semiprime_lab
from semiprime_lab.cli import build_parser, main

OPTIONS = {
    "semigroup": ("--gens",),
    "canon": ("--gens", "--p", "--elem", "--json"),
    "ideals": ("--gens", "--p", "--max-order", "--ideal", "--json"),
    "lattice": ("--gens", "--p", "--max-order", "--dot", "--out"),
    "verify": ("--op", "--gens", "--p", "--m", "--max-order", "--axioms", "--include-zero",
               "--no-include-zero", "--expect-pass"),
    "search": ("--gens", "--p", "--max-order", "--mode", "--margin", "--budget", "--json",
               "--explain", "--expect-identity-only"),
    "demo-fractional": ("--dvr", "--gens", "--p", "--s", "--D", "--candidate"),
}


def subcommands():
    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_each_subcommand_has_its_pinned_options():
    got = {
        name: tuple(o for a in parser._actions if not isinstance(a, argparse._HelpAction)
                    for o in a.option_strings)
        for name, parser in subcommands().items()
    }
    assert got == OPTIONS


def test_a_removed_option_is_an_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--gens", "2,5", "--p", "2", "--max-order", "4", "--no-zero"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-zero" in capsys.readouterr().err


@pytest.mark.parametrize("name", semiprime_lab.__all__)
def test_every_export_resolves(name):
    assert getattr(semiprime_lab, name) is not None
