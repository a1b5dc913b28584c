"""CLI stdout pinned by sha256 digest.

The argv lines are the seeded `coprod` jobs of the `looping-coprod`
benchmark workload at seed 0 (one per line of `COPROD_TEMPLATES` in
`perfbench/jobs.py`) and the check suites it runs, plus `check all`.  The
digests were recorded before the even-operation maps shared work between
equal and proportional ring legs; the last four (the `upoly` JSON of one
polynomial per output, and a large `coprod` in text form) before the JSON
writer built one monomial table per output; the last four (`coprod mul` at
window 64 and 32, with legs of non-unit content and squared factors) before
each co-multiplication entry became one ring map on the generators; the
last nine (text output of a large `coprod mul`, of `upoly psi 40` and `upoly
pk 12`, of a ring `coprod`, of `compose` and `loop` in both parities and of
`act` on the projective model) before the text writer built one monomial
table per output, as the JSON writer does; the last three (a `coprod mul`
at trunc 8 with two divisor-rich indicators, a `compose` at trunc 10 whose
left leg is a scalar multiple, and `check biring --trunc 8`, all running
gamma at large |kappa| or k up to 10) before gamma(kappa)(L_k) was built in
closed form, one term per partition of k; the last four (`upoly pij 5 5`
and `upoly plin 12` as text, `check looping --trunc 12` and `check all
--trunc 8`) before P_k, P_{i,j}, psi_k and the three-leg co-multiplication
each ran one Newton step per alphabet through their own caches; the last
four (two `compose` at trunc 12 and 10 whose right legs are sums, scalar
multiples, generators and products, a `compose` onto a generator power, and
`check compose --trunc 10`) before L_g o y became one Newton step over the
Adams images of y; the last three (`check models --seed 3` and `act` on the
split and projective models at lambda^8) before each model point's lambda
series grew in place by Newton's identity and `act` read lambda^k only for
the monomials its memo misses; the last four (two odd `compose` at trunc 20
and 24 whose generator pairs have every parity, `loop` of an odd operand up
to l14, and `upoly plin 12` as JSON) before looping, odd composition and
`upoly plin` used the closed forms of the collapsed Newton step instead of
building P_k and P_{i,j}; the last three (`coprod mul` at trunc 8 of a
generator above L5 on the operation carrier, and of a nonlinear table in both
formats) before each co-multiplication entry became a binomial combination
of one fixed basis per generator; the last three (`act` on `cp:64` with a
term of degree 40, on `split:4` at lambda^10 and on `cp:7` at lambda^9, the
first pins of models with m > 3) before the line-class models computed
psi^k as the ring map that raises each line to its k-th power instead of
splitting each element into line classes; the last four (`coprod add` of
one leg repeated across about 800 entries as text, `loop` of an odd operand
to 33 copies of one leg as JSON, and a `coprod mul` at window 5 with
negative and one-sided indices in both formats) before the
co-multiplication built only the entries with rho <= s and took the others
by exchanging the tensor legs, and the writers sorted one row layout per
distinct monomial sequence; the last one (`check looping --trunc 14` as
JSON) before every evaluation at model lambda values went through
`poly_eval_in_model` with the legs as its input; the last one (`check
biring --trunc 9` as JSON, the first biring pin above trunc 8) before
`IntPoly.substitute` grouped its terms by their substituted part and built
each part's image once through the monomial step of `evaluate`; the last
one (`coprod mul` of L11 + L5*L6 at trunc 11 as JSON, the first ring-carrier
pin to build P_11 in the tensor legs) before every co-multiplication image
was built in its own legs by one Newton step per product alphabet; the
last two (`coprod add` of L4*L3*L2 + L10 at trunc 10 as text and as JSON,
the first ring-carrier co-addition pins above trunc 5) before the
co-addition images were built as the sum alphabet of their legs.  Any
change to these outputs is a change of answers, not of speed.
"""

import hashlib
import subprocess
import sys

import pytest

# an element of cp:64 with a term far above u^8 and one far below u^64
_CP64_ELEMENT = '2+3*u-' + '*'.join(['u'] * 5) + '+' + '*'.join(['u'] * 40)

PINNED = [
    (['coprod', 'mul', 'const(-1)@L5', '--trunc', '5', '--window', '16', '--format', 'json'],
     'e7bd2552d0e6760fc6c4b385455b1194f84332e99dd695ca0b606d71e2d68f92'),
    (['coprod', 'mul', 'const(1)@L5', '--trunc', '5', '--window', '8', '--format', 'json'],
     '763344537057bbe7e1f72fc22454c7543eace8170b33d9a83ccc93452c57da06'),
    (['coprod', 'mul', 'const(-1)@L4', '--trunc', '5', '--window', '16', '--format', 'json'],
     'da1b20651a596c3e3ddfac7c046f503dc952f82de6969c4a477cd860e1fc5452'),
    (['coprod', 'mul', 'id@L4 + chi(0)@(1*L2)', '--trunc', '5', '--window', '16', '--format', 'json'],
     'c23febb5a9d3d266bc688a3351804f924c31e4524c3ccb83251aaa5d9fde1401'),
    (['coprod', 'mul', 'const(1)@L4', '--trunc', '5', '--window', '8', '--format', 'json'],
     '210345490f7329faa5a464bda65b07a72772e93c5dc4f45e6049945dc18419a8'),
    (['coprod', 'mul', 'const(2)@L3', '--trunc', '5', '--window', '16', '--format', 'json'],
     'b6659268b7b36cd5f480bdc17945b8e0c324583788bde10022ee95c499934e11'),
    (['coprod', 'mul', 'id@L3', '--trunc', '5', '--window', '16', '--format', 'json'],
     '562f5b3b634d80d3e20db822df432eb67a5fd6a3bab15fa2f6185110f20778ab'),
    (['coprod', 'mul', 'chi(-2)@(L1*L2) + const(1)@L3', '--trunc', '5', '--window', '16', '--format', 'json'],
     '7f48a06af02e06c9c2afe7257fbf65c4f9f1f6c850112f910e54fae764a10c83'),
    (['coprod', 'mul', 'chi(3)@L3 + const(2)@L2', '--trunc', '5', '--window', '16', '--format', 'json'],
     'df2e27ba6a5b988426eb7e51f85b09020967b2ac24ec43ee5d65f71779f94184'),
    (['coprod', 'mul', 'id@(L1*L2) + chi(1)@L3', '--trunc', '5', '--window', '16', '--format', 'json'],
     '5326ddbb9e95716d2c1eebef3dc518ac81abd9e17a31abc75c2d4c97d3f6e1c7'),
    (['coprod', 'mul', 'chi(0)@(2*L4) + id@L2', '--trunc', '5', '--window', '16', '--format', 'json'],
     'b0226aec6d20f4fcd0346577d36b2214019cc170c9af627ad5a21b0cbcad5417'),
    (['coprod', 'add', 'const(2)@L5', '--trunc', '5', '--window', '16', '--format', 'json'],
     '3649f4dc3aa9f537e8e82228d5ea497929e815df10cdfc42009df4dada3494f4'),
    (['coprod', 'add', 'chi(-2)@L4 + chi(1)@(L2*L1)', '--trunc', '5', '--window', '16', '--format', 'json'],
     '741dc8cb7e6648ded0405172be9593f2cefc975affd6d340ba98a1a707d14094'),
    (['coprod', 'mul', '(-1)*L4', '--trunc', '5', '--window', '16', '--format', 'json'],
     '8794d11296c52719be1338cefc2ed6f27d569c37e72015845e327e968306b119'),
    (['coprod', 'add', 'L5 + 1*L2*L3', '--trunc', '5', '--window', '16', '--format', 'json'],
     'f9c6eda7826558236674ceace28216d273674afcd39eb19c0065063d9a515fef'),
    (['check', 'looping', '--trunc', '5'],
     '8b65699e8ed92805c3d0bbc0272573297dcc778841426734672ef8ce1efd2e6b'),
    (['check', 'main', '--trunc', '5'],
     'e6987c8fb165d536fbe1a1c325d9fe186dc3f9654a18e8962ceb57ec4f9d1fc9'),
    (['check', 'compose', '--trunc', '5'],
     '6a7280fe0305299051ff183ed2b45652ad9ff870545120b6f7a0b041780d357b'),
    (['check', 'all', '--trunc', '6'],
     '213f6cb28fd058fc19aa243208e543a65ae971ecbe61aa8d10c69e5d0a27364b'),
    (['upoly', 'pk', '7', '--format', 'json'],
     '277001815736234c50f8e3d756f23a1e2233d94316483244605881f301035c73'),
    (['upoly', 'psi', '12', '--format', 'json'],
     '068977ae6e32cb28f40c41be4da6ba7e79acd71745528bb530f268e6664602b4'),
    (['upoly', 'pij', '3', '3', '--format', 'json'],
     '503c06d284f457c24a83804661141d8bd8fed9492812b3ce92b3f46bb9a122c5'),
    (['coprod', 'mul', 'const(2)@L5', '--trunc', '5', '--window', '16', '--format', 'text'],
     '249e6330f905052ffa33b302fac7bc884f4e0939f84704ec973b5208ed621582'),
    (['coprod', 'mul', 'const(2)@L5', '--trunc', '5', '--window', '64', '--format', 'json'],
     '806c2b7b209c1b5167de63e6d08d97e95fb50db1f8a61461b6e2f8b900ede4ba'),
    (['coprod', 'mul', 'const(2)@L5', '--trunc', '5', '--window', '64', '--format', 'text'],
     'da3234be2f644313241dba12b4e7df5c843f4198707b74f0651cdf84c4df4d5a'),
    (['coprod', 'mul', 'chi(0)@(-2*L1*L2 + 4*L3) + id@(L1*L1)', '--trunc', '6', '--window', '32',
      '--format', 'json'],
     '302e3f4081645011381a1c13a65c2260b8ec43e25cc881e374927ab76aba26e8'),
    (['coprod', 'mul', 'chi(0)@(-2*L1*L2 + 4*L3) + id@(L1*L1)', '--trunc', '6', '--window', '32',
      '--format', 'text'],
     '74bbaf8073a01295743688eb6eae2924ac06dcccb5ef2061057766ec643e8632'),
    (['coprod', 'mul', 'const(1)@L5', '--trunc', '10', '--window', '32', '--format', 'text'],
     '67625ca57bf6b0784455a5b46be7a73c8a205b487f026e027308aa0903f0c912'),
    (['upoly', 'psi', '40', '--format', 'text'],
     'deb91c6ed656b4b2cd96a788c7ea37e6b2720e81f8462ccd94caa6f5bb17fd77'),
    (['upoly', 'pk', '12', '--format', 'text'],
     '22cca4388ad42f171bb45df2de8dbb757043dd3149b3dbc494e149f0e25c0527'),
    (['coprod', 'mul', 'L4*L3 + L8', '--trunc', '10', '--format', 'text'],
     'ae70301c0fb19d774d99f2e7e39c39d3b1900a32f3c8ccb4d1cd6dea90ae818a'),
    (['compose', 'chi(1)@L3 + const(2)@(L1*L2)', 'chi(2)@(L2*L1) + id@L3', '--trunc', '8',
      '--format', 'text'],
     'd0886d47b904824a0167e8b16883c0872a590975876577df8aacc721ded29610'),
    (['compose', 'l1*l2', 'l3', '--trunc', '8', '--format', 'text'],
     'b6f377082a51a7debcf999c0cc3769aecafd10a7c8292fd8e576a7639e319132'),
    (['loop', 'chi(1)@L2 - chi(0)@L2', '--trunc', '6', '--format', 'text'],
     '90f9201dce389d4bf514b3055ff9dc6a0e0f8814a81c6f2d35c48d24a43ae65c'),
    (['loop', 'l1*l2 + 3*l3', '--trunc', '6', '--format', 'text'],
     'f8b8c2cd2a41d7e995155ed95252750efa4d51d1e61b829bd3942cd6f350d71e'),
    (['act', '--model', 'cp:3', 'chi(1)@L2 + id@L1', '2*u + 1', '--format', 'text'],
     '77b80fb23d29874b77e133941e682dd07bee90a28075757e6aee30dc8f899969'),
    (['--trunc', '8', '--window', '16', 'coprod', 'mul', 'chi(2)@(L1*L2) + const(3)@L4',
      '--format', 'json'],
     '005205a4a7f1d54dedbb3053213827880fa7ca6d487bc5c8855f5c56f6a883b5'),
    (['--trunc', '10', 'compose', 'const(3)@(2*L3)', 'chi(1)@(L2) + const(2)@(3*L1)'],
     'b6cbf7013c3a1cc006c7991a6aff64cd55a44b66c6fdaeda24b06f20286b4aff'),
    (['check', 'biring', '--trunc', '8'],
     '446d09418a53c1c5af8ec48b1c6ba5fc5dd2801133c4f8ef52a744d33a3f05fa'),
    (['upoly', 'pij', '5', '5', '--format', 'text'],
     '106242234ba58f4eec9cd9546a5df1ff0b04e014bf599c08184310680f50ed73'),
    (['upoly', 'plin', '12', '--format', 'text'],
     'c9879313426fa4f3ef96a77c61fd15fe8c85d0497089580d43925566e16e4195'),
    (['check', 'looping', '--trunc', '12'],
     '03739dff79623413344cebc9e8663a02a2061dcb81ed156351ffa011c68a4330'),
    (['check', 'all', '--trunc', '8'],
     '4ae978859a37b6c5263159cd9633d6e7b29c530d789f33d93f7757ab23b2384e'),
    (['compose', 'chi(1)@(L4*L2)+const(2)@L6', 'chi(0)@(L1*L1-2*L2)+id@L1', '--trunc', '12'],
     '9a65d5deb3da0649993d498586d79f5de88cf0b0d7157631b46deea4cfecd401'),
    (['compose', 'const(1)@(L3*L2-L5)', 'const(1)@(3*L1*L1-2*L2+L1)', '--trunc', '10',
      '--format', 'json'],
     '68f6c6337502e6b2c5ee98278ed106a5459c5126187105c832295ff92849ee24'),
    (['compose', 'L4', 'L2*L2*L2*L2', '--trunc', '8'],
     'f6cfc334319928578eda8c935e4557c4ffa1ca4836740860a3930669fc5ccc4b'),
    (['check', 'compose', '--trunc', '10'],
     '6a7280fe0305299051ff183ed2b45652ad9ff870545120b6f7a0b041780d357b'),
    (['check', 'models', '--seed', '3'],
     'e33df114194b0e454869c740db709e454d9fe3b846c8bd2aca572f5a63e07f91'),
    (['act', '--model', 'split:3', '--trunc', '8', 'chi(1)@(L8)+const(2)@(L3*L5)',
      'x1*x2*x2-2*x3+1'],
     'f3c8bd3e65c3ca5a868b90b375b5d5529fe70e48db2ef49a72924ad9875cb540'),
    (['act', '--model', 'cp:2', '--trunc', '8', 'chi(1)@(L8)+const(2)@(L3*L5)', '3*u*u-u+1'],
     '38e72c5eeb954c3bbf22c43e86253637d8e0fe0307a066676b83d77a3a90f554'),
    (['compose', 'l2*l3+2*l4', 'l2-3*l5', '--trunc', '20'],
     'e0006a8beb336e2c1867ac03f5a8d2bd5545d21a4af0342154fd9cf643cac11a'),
    (['compose', 'l2*l4+l3', 'l2+l4-l6', '--trunc', '24'],
     'ad509c6133d01e951a9ce924e829e4dabaedaf07c94a7475f03f689283af1f27'),
    (['loop', 'l4-2*l7+l14', '--trunc', '14'],
     '9acefbe18210bdc1f54af750044f8cafebe634b1b5779da12bb4ddf0e6626b8e'),
    (['--format', 'json', 'upoly', 'plin', '12'],
     'adef1d67c85f347875e67b38c506c5f538bc568f9c11f6e89a97f86d42e1ff31'),
    (['coprod', 'mul', 'id@L7', '--trunc', '8', '--window', '12', '--format', 'json'],
     '9b694b339d74337b808828ce84ea229a2efe34dde0ce3af574c7029c0afa2319'),
    (['coprod', 'mul', 'id@(L1*L2)+const(3)@L6', '--trunc', '8', '--window', '12',
      '--format', 'json'],
     'a39651ac94076e677948b8f952b6067c6acc9078346a8414112121b14fd637ee'),
    (['coprod', 'mul', 'id@(L1*L2)+const(3)@L6', '--trunc', '8', '--window', '12',
      '--format', 'text'],
     '4fd26a1de93fc897ac91a320cd13f4a0d20220a434c6a84054e58ed752c40093'),
    (['act', '--model', 'cp:64', '--trunc', '8', 'const(1)@(L8+L3*L5)', _CP64_ELEMENT],
     'c5b9e343db15369e28664563431623781d38e54d6c4913ed560277259fb929b9'),
    (['act', '--model', 'split:4', '--trunc', '10', 'chi(0)@(L10)+const(1)@(L4*L6)',
      'x1*x2-x3*x4*x4+x1*x1*x3'],
     '7112c9efd8e94bf83b02c229ac1ec3203f170c77677b2d70e7ed252435a3ab6a'),
    (['act', '--model', 'cp:7', '--trunc', '9', 'id@(L9-L2*L7)+chi(2)@(L3*L3*L3)',
      '2+u*u*u-3*u'],
     '2c8cb366add70940a860ae950cdc4452ba5e3d45c82baf7f512b854052461667'),
    (['coprod', 'add', 'const(1)@L5', '--trunc', '5', '--window', '16'],
     '0d7db0a16cd9e804984d73dc229a609a34bb7420aff312b54cedf8b08691c88b'),
    (['loop', 'l4-2*l7+l14', '--trunc', '14', '--format', 'json'],
     '402c1ca4f96eccaf60d9b47b64a2980f6d087b6ebf66da982274d8a0f496556a'),
    (['coprod', 'mul', 'chi(-3)@(L1*L2) + chi(5)@L1', '--trunc', '6', '--window', '5'],
     'ae6b095ab4042bad3331f713a7fc11043257edfcbbe4ccb49594d9dce9df6f02'),
    (['coprod', 'mul', 'chi(-3)@(L1*L2) + chi(5)@L1', '--trunc', '6', '--window', '5',
      '--format', 'json'],
     '273c93a40a8a4f31d89412b86248d367d4dd143fb5dc0f48299f562e18f6323c'),
    (['check', 'looping', '--trunc', '14', '--format', 'json'],
     '0af4c387c8ff6dd38cff633d372a6453eecd1eca25cbb9a4c5be71657179b06b'),
    (['check', 'biring', '--trunc', '9', '--format', 'json'],
     'cb2f40b3af68099a36b81dc615d5a9d7ef8618102bc9a923be56b0fd6f47ea60'),
    (['coprod', 'mul', 'L11+L5*L6', '--trunc', '11', '--format', 'json'],
     '0d5be4c04957ac9c12f75d203a6469491d48d05025e91b1deee564ddd37b6e5c'),
    (['coprod', 'add', 'L4*L3*L2 + L10', '--trunc', '10', '--format', 'text'],
     '51e12f6468ae6072926489125c1df0c0bb0715cd7b6e437a13efe9da083af127'),
    (['coprod', 'add', 'L4*L3*L2 + L10', '--trunc', '10', '--format', 'json'],
     '249b1c363999b421ed8c8fe1f31c9ff3d9efc1e5d1c5468729631b539efe5e81'),
]


@pytest.mark.parametrize("argv,digest", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_cli_stdout_digest(argv, digest):
    got = subprocess.run([sys.executable, "-m", "lambdaops.cli", *argv], capture_output=True)
    assert got.returncode == 0 and got.stderr == b"", got.stderr
    assert hashlib.sha256(got.stdout).hexdigest() == digest
