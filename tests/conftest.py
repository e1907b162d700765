"""Shared fixtures: session-scoped tiny worlds so tests stay fast."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import TINY, ExperimentWorld
from repro.corpus import WorldConfig, build_world


@pytest.fixture(scope="session")
def tiny_world():
    """A small but fully featured world shared by read-only tests."""
    return build_world(
        WorldConfig(n_commits=350, n_repos=6, files_per_repo=4, seed=42, security_fraction=0.10)
    )


@pytest.fixture(scope="session")
def experiment_world():
    """A TINY-scale ExperimentWorld shared by experiment/integration tests."""
    return ExperimentWorld(TINY, seed=2021)


LISTING_1 = """commit b84c2cab55948a5ee70860779b2640913e3ee1ed
Author: Dev One <d1@example.org>
Date:   Tue Nov 5 10:00:00 2019 -0500

    prevent stack underflow in bit_write_UMC

diff --git a/src/bits.c b/src/bits.c
index 014b04fe4..a3692bdc6 100644
--- a/src/bits.c
+++ b/src/bits.c
@@ -953,7 +953,7 @@ bit_write_UMC (Bit_Chain *dat, BITCODE_UMC val)
     if (byte[i] & 0x7f)
       break;

-  if (byte[i] & 0x40)
+  if (byte[i] & 0x40 && i > 0)
     byte[i] &= 0x7f;
   for (j = 4; j >= i; j--)
     {
"""

LISTING_2 = """commit c3b3c274cf7911121f84746cd80a152455f7ec97
Author: Dev Two <d2@example.org>
Date:   Mon Mar 2 09:00:00 2015 +0100

    only freeze the init process

diff --git a/main.c b/main.c
index 6a3eee2eb..b8ad59018 100644
--- a/main.c
+++ b/main.c
@@ -575,5 +575,8 @@ finish:

         dbus_shutdown();

+        if (getpid() == 1)
+                freeze();
+
         return retval;
 }
"""


@pytest.fixture()
def listing_1() -> str:
    """The paper's Listing 1 (security patch, CVE-2019-20912)."""
    return LISTING_1


@pytest.fixture()
def listing_2() -> str:
    """The paper's Listing 2 (non-security patch in systemd)."""
    return LISTING_2


OVERRUN_HUNK_PATCH = """commit 0123456789abcdef0123456789abcdef01234567
Author: Dev Three <d3@example.org>
Date:   Wed Jan 8 10:00:00 2020 +0000

    hunk body longer than its header says

diff --git a/a.c b/a.c
--- a/a.c
+++ b/a.c
@@ -1,1 +1,1 @@
-a
-b
+c
"""


@pytest.fixture()
def overrun_patch() -> str:
    """A patch whose hunk has two removed lines under an old count of 1."""
    return OVERRUN_HUNK_PATCH
