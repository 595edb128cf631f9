"""GREMIO's partitions, pinned: a digest of the assignment for every
registry workload at ``train`` with 2 and 3 threads, for the ``gremio``
and ``gremio-flat`` techniques and the region-grouped ablation.  A
restructuring of the partitioner must leave every digest unchanged; a
change that moves a partition on purpose regenerates them (the printout
of a failure lists the new values)."""

import hashlib

import pytest

from repro.machine.config import DEFAULT_CONFIG
from repro.partition.gremio import GremioPartitioner
from repro.pipeline.stages import make_partitioner

from .helpers import train_front

PINNED = {
    ('177.mesa', 2, 'gremio'): 'ad6c5b43c5884620',
    ('177.mesa', 2, 'gremio-flat'): '4b8751dee9823664',
    ('177.mesa', 2, 'grouped'): 'ad6c5b43c5884620',
    ('177.mesa', 3, 'gremio'): '1a1809ed17bda0b3',
    ('177.mesa', 3, 'gremio-flat'): 'eb7e057f19683478',
    ('177.mesa', 3, 'grouped'): '4c50abe54f139f09',
    ('181.mcf', 2, 'gremio'): '24dd2a9c5feeb1dc',
    ('181.mcf', 2, 'gremio-flat'): '7fe1a533c2f44b44',
    ('181.mcf', 2, 'grouped'): '5716a3d700cde091',
    ('181.mcf', 3, 'gremio'): 'e3950afaf9e63661',
    ('181.mcf', 3, 'gremio-flat'): 'de35735eb4b0ba49',
    ('181.mcf', 3, 'grouped'): '0452f2d5550096b2',
    ('183.equake', 2, 'gremio'): 'bc37877e2ec1ad76',
    ('183.equake', 2, 'gremio-flat'): '9f86c2a2771ae364',
    ('183.equake', 2, 'grouped'): 'bc37877e2ec1ad76',
    ('183.equake', 3, 'gremio'): '9b13698a4f0e05ab',
    ('183.equake', 3, 'gremio-flat'): '538faa79110492df',
    ('183.equake', 3, 'grouped'): '9b13698a4f0e05ab',
    ('188.ammp', 2, 'gremio'): 'f599537c4bd0fbf9',
    ('188.ammp', 2, 'gremio-flat'): 'd7eb96e1546b5956',
    ('188.ammp', 2, 'grouped'): 'f599537c4bd0fbf9',
    ('188.ammp', 3, 'gremio'): '27e2a4cdbd213f56',
    ('188.ammp', 3, 'gremio-flat'): 'b53cd28ac223636d',
    ('188.ammp', 3, 'grouped'): '27e2a4cdbd213f56',
    ('300.twolf', 2, 'gremio'): 'c1c521aa6d148567',
    ('300.twolf', 2, 'gremio-flat'): '2db6a786800af5f6',
    ('300.twolf', 2, 'grouped'): 'c1c521aa6d148567',
    ('300.twolf', 3, 'gremio'): 'c4a77baa25bba686',
    ('300.twolf', 3, 'gremio-flat'): '39e2a4cd078e51c9',
    ('300.twolf', 3, 'grouped'): 'c4a77baa25bba686',
    ('435.gromacs', 2, 'gremio'): '1f146ff9a471f1e5',
    ('435.gromacs', 2, 'gremio-flat'): '43601bb71e83cef9',
    ('435.gromacs', 2, 'grouped'): '1f146ff9a471f1e5',
    ('435.gromacs', 3, 'gremio'): 'b879e35e83ccf1d2',
    ('435.gromacs', 3, 'gremio-flat'): 'e6c2a2881d77c52c',
    ('435.gromacs', 3, 'grouped'): 'b879e35e83ccf1d2',
    ('458.sjeng', 2, 'gremio'): '53185859481c90b6',
    ('458.sjeng', 2, 'gremio-flat'): '56b0480f27b89e44',
    ('458.sjeng', 2, 'grouped'): 'd098c4956f8824c3',
    ('458.sjeng', 3, 'gremio'): 'a7a93d10c46e4081',
    ('458.sjeng', 3, 'gremio-flat'): 'a68866030a19ebdd',
    ('458.sjeng', 3, 'grouped'): '9b1fc3bd74228b4c',
    ('adpcmdec', 2, 'gremio'): '32244f2f45ce75d1',
    ('adpcmdec', 2, 'gremio-flat'): 'd63dc320020b6c16',
    ('adpcmdec', 2, 'grouped'): '32244f2f45ce75d1',
    ('adpcmdec', 3, 'gremio'): '69a26d6ba315c037',
    ('adpcmdec', 3, 'gremio-flat'): '891d4f1ef717eae9',
    ('adpcmdec', 3, 'grouped'): '69a26d6ba315c037',
    ('adpcmenc', 2, 'gremio'): '41e554cf06989a7a',
    ('adpcmenc', 2, 'gremio-flat'): '1c39c6df29c1587a',
    ('adpcmenc', 2, 'grouped'): '41e554cf06989a7a',
    ('adpcmenc', 3, 'gremio'): 'c559935dd2757e78',
    ('adpcmenc', 3, 'gremio-flat'): 'e47664c3415f6bb7',
    ('adpcmenc', 3, 'grouped'): '59bac246978f117d',
    ('ks', 2, 'gremio'): '0ef82db5fdd70a2c',
    ('ks', 2, 'gremio-flat'): 'd7ca1532f8c768cc',
    ('ks', 2, 'grouped'): '0ef82db5fdd70a2c',
    ('ks', 3, 'gremio'): '95f6b6fdf7733f2f',
    ('ks', 3, 'gremio-flat'): 'f1e4dc547614a794',
    ('ks', 3, 'grouped'): '95f6b6fdf7733f2f',
    ('mpeg2enc', 2, 'gremio'): '6ba7d40f23539cf2',
    ('mpeg2enc', 2, 'gremio-flat'): 'dcaffe2dc0138633',
    ('mpeg2enc', 2, 'grouped'): 'd3b5e65d3d0fc0fa',
    ('mpeg2enc', 3, 'gremio'): '3a44d2067042c107',
    ('mpeg2enc', 3, 'gremio-flat'): '5a1a193287b424f3',
    ('mpeg2enc', 3, 'grouped'): 'ab2813263c01c6a7',
    ('syn.argmin', 2, 'gremio'): '25252cbe34a8e842',
    ('syn.argmin', 2, 'gremio-flat'): 'bbd321b77a11bd30',
    ('syn.argmin', 2, 'grouped'): '25252cbe34a8e842',
    ('syn.argmin', 3, 'gremio'): 'a0e45127aefdda35',
    ('syn.argmin', 3, 'gremio-flat'): 'c2b75eb8b3494899',
    ('syn.argmin', 3, 'grouped'): '83a2114b67a75ef0',
    ('syn.blur3', 2, 'gremio'): '64991f818745ed8c',
    ('syn.blur3', 2, 'gremio-flat'): '189fc5d17bc9037a',
    ('syn.blur3', 2, 'grouped'): '64991f818745ed8c',
    ('syn.blur3', 3, 'gremio'): '0eed71fab086fa39',
    ('syn.blur3', 3, 'gremio-flat'): 'ed4915dbafa565c3',
    ('syn.blur3', 3, 'grouped'): '0eed71fab086fa39',
    ('syn.dotsat', 2, 'gremio'): '47884ae16b6c4ec2',
    ('syn.dotsat', 2, 'gremio-flat'): '8e25e43625de0cc4',
    ('syn.dotsat', 2, 'grouped'): '47884ae16b6c4ec2',
    ('syn.dotsat', 3, 'gremio'): '80c46231e60e2a43',
    ('syn.dotsat', 3, 'gremio-flat'): '5666f903c21891cd',
    ('syn.dotsat', 3, 'grouped'): '80c46231e60e2a43',
    ('syn.prefix', 2, 'gremio'): 'bc37a97d4b682bfe',
    ('syn.prefix', 2, 'gremio-flat'): '2640deea0807692b',
    ('syn.prefix', 2, 'grouped'): 'bc37a97d4b682bfe',
    ('syn.prefix', 3, 'gremio'): '14f2562603a72f8f',
    ('syn.prefix', 3, 'gremio-flat'): '2ed81da56ad659b4',
    ('syn.prefix', 3, 'grouped'): '14f2562603a72f8f',
    ('syn.quant', 2, 'gremio'): '5eea618ec3b41db4',
    ('syn.quant', 2, 'gremio-flat'): '2e1b5e8ed154c2eb',
    ('syn.quant', 2, 'grouped'): '5eea618ec3b41db4',
    ('syn.quant', 3, 'gremio'): 'f065dc18e9c77088',
    ('syn.quant', 3, 'gremio-flat'): '262fa8b9cc788a73',
    ('syn.quant', 3, 'grouped'): 'f065dc18e9c77088',
}


def _partitioner(variant, config):
    if variant == "grouped":
        return GremioPartitioner(config, region_grouping=True)
    return make_partitioner(variant, config)


def assignment_digest(assignment):
    return hashlib.sha256(
        repr(sorted(assignment.items())).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted({key[0] for key in PINNED}))
def test_partitions_are_pinned(name):
    function, pdg, profile = train_front(name)
    found = {}
    for (workload, n_threads, variant) in PINNED:
        if workload != name:
            continue
        partitioner = _partitioner(variant,
                                   DEFAULT_CONFIG.with_cores(n_threads))
        found[(workload, n_threads, variant)] = assignment_digest(
            partitioner.partition(function, pdg, profile,
                                  n_threads).assignment)
    assert found == {key: digest for key, digest in PINNED.items()
                     if key[0] == name}
